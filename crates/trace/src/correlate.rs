//! Cross-party trace merge and overlap attribution.
//!
//! Takes the Chrome-trace exports of a client and a server process,
//! aligns the server's clock onto the client's using the
//! [`crate::clocksync`] estimate the client recorded at teardown, and
//! produces:
//!
//! * one merged Chrome-trace JSON — client lanes under `pid` 1, server
//!   lanes under `pid` 2, with flow arrows connecting each tagged wire
//!   send to the receive that consumed it;
//! * a per-layer overlap attribution: for every conv layer (client
//!   `send_all` span matched to the server `serve_conv` span via the
//!   wire-propagated trace id), how much of the layer window both
//!   parties were busy, how much only one was, and how much both idled.
//!
//! ## Busy model
//!
//! A party is *busy* at time `t` when any of its spans covers `t`,
//! minus the explicit wait spans — stream `idle`, `blocked (channel
//! full)`, and wire `recv` (a party parked in `recv` is waiting on its
//! peer, not working). **Overlap efficiency** for a window is
//! `both_busy / min(client_busy, server_busy)`: the fraction of the
//! less-busy party's work that the other party's work hid. This module
//! is its only definition and the only emitter of
//! `spot_overlap_efficiency`; the server's own view of one session,
//! worker `busy / (busy + idle)`, is a different ratio under a
//! different name (`spot_core::stream::StreamStats::server_busy_share`). SPOT's
//! per-input jobs keep the efficiency near 1; channel-wise jobs, which
//! wait for the whole upload, collapse it — the linear computation
//! stall, made visible. A whole-session window also spans the key
//! upload and the non-linear rounds, where one party waits by
//! construction, so the `overall` figure sits below the per-layer ones.

use crate::chrome::{push_event, push_us};
use crate::clocksync::{self, ClockEstimate};
use crate::json::escape_into;
use crate::{Cat, Event, Name, Phase};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Span names that mean "waiting", not "working".
const WAIT_SPANS: [&str; 4] = ["idle", "wait key", "blocked (channel full)", "recv"];

/// One party's exported trace: its events plus its thread-name table.
#[derive(Debug, Clone, Default)]
pub struct PartyTrace {
    /// Recorded events (any order; the merge sorts).
    pub events: Vec<Event>,
    /// `(tid, name)` pairs from the party's thread registry.
    pub threads: Vec<(u32, String)>,
}

/// A matched wire flow: a tagged send on one side paired with the
/// receive of the same frame on the other, timestamps already on the
/// merged (client) clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowArrow {
    /// The causal tag both ends carried.
    pub tag: u64,
    /// True for client→server (upload), false for server→client.
    pub client_to_server: bool,
    /// Sending thread (in the sender's tid space).
    pub from_tid: u32,
    /// Send-span start, merged clock.
    pub from_ts_ns: u64,
    /// Receiving thread (in the receiver's tid space).
    pub to_tid: u32,
    /// Receive-span end, merged clock.
    pub to_ts_ns: u64,
}

/// Overlap attribution for one conv layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerOverlap {
    /// Display label (server span name).
    pub label: String,
    /// Wire trace id that matched the pair (0 = chronological match).
    pub trace: u64,
    /// Layer window: union of the client and server layer spans.
    pub window_ns: u64,
    /// Client busy time within the window.
    pub client_busy_ns: u64,
    /// Server busy time within the window.
    pub server_busy_ns: u64,
    /// Time both parties were busy simultaneously.
    pub both_busy_ns: u64,
    /// Client busy while the server waited.
    pub client_only_ns: u64,
    /// Server busy while the client waited.
    pub server_only_ns: u64,
    /// Neither party busy.
    pub both_idle_ns: u64,
    /// `both_busy / min(client_busy, server_busy)`, clamped to [0, 1].
    pub efficiency: f64,
    /// Flow arrows whose send started inside the window.
    pub flows: usize,
}

/// Whole-session overlap totals (same decomposition as a layer, over
/// the full merged trace extent).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverlapTotals {
    /// First-event to last-event extent on the merged clock.
    pub window_ns: u64,
    /// Client busy time.
    pub client_busy_ns: u64,
    /// Server busy time.
    pub server_busy_ns: u64,
    /// Both busy simultaneously.
    pub both_busy_ns: u64,
    /// Client busy, server waiting.
    pub client_only_ns: u64,
    /// Server busy, client waiting.
    pub server_only_ns: u64,
    /// Neither busy.
    pub both_idle_ns: u64,
    /// `both_busy / min(client_busy, server_busy)`, clamped to [0, 1].
    pub efficiency: f64,
}

/// Everything the merge computed.
#[derive(Debug, Clone)]
pub struct MergeReport {
    /// Clock alignment recovered from the client trace, if recorded.
    pub clock: Option<ClockEstimate>,
    /// Per-layer attribution, in time order.
    pub layers: Vec<LayerOverlap>,
    /// Matched flow arrows, in send-time order.
    pub flows: Vec<FlowArrow>,
    /// Whole-session totals.
    pub totals: OverlapTotals,
    /// Client span count (merged timeline sanity number).
    pub client_spans: usize,
    /// Server span count.
    pub server_spans: usize,
}

/// The merge result: the Perfetto-loadable JSON and the report.
#[derive(Debug, Clone)]
pub struct Merged {
    /// Merged Chrome-trace JSON (client pid 1, server pid 2, flows).
    pub json: String,
    /// Attribution report.
    pub report: MergeReport,
}

// ---------------------------------------------------------------------
// Interval arithmetic
// ---------------------------------------------------------------------

/// Sorts and coalesces half-open intervals `[start, end)`.
fn normalize(mut iv: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    iv.retain(|&(s, e)| e > s);
    iv.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(iv.len());
    for (s, e) in iv {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// `a − b` for normalized interval sets.
fn subtract(a: &[(u64, u64)], b: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut out = Vec::with_capacity(a.len());
    let mut bi = 0;
    for &(mut s, e) in a {
        while s < e {
            while bi < b.len() && b[bi].1 <= s {
                bi += 1;
            }
            match b.get(bi) {
                Some(&(bs, be)) if bs < e => {
                    if s < bs {
                        out.push((s, bs));
                    }
                    s = be.max(s);
                }
                _ => {
                    out.push((s, e));
                    break;
                }
            }
        }
        // A cut interval may have consumed b entries needed by the next
        // a interval only if they end before it starts — rewinding is
        // unnecessary because a is sorted and disjoint.
    }
    normalize(out)
}

/// `a ∩ b` for normalized interval sets.
fn intersect(a: &[(u64, u64)], b: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let s = a[i].0.max(b[j].0);
        let e = a[i].1.min(b[j].1);
        if s < e {
            out.push((s, e));
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    out
}

/// Total length of a normalized interval set.
fn measure(iv: &[(u64, u64)]) -> u64 {
    iv.iter().map(|&(s, e)| e - s).sum()
}

/// Clips a normalized set to `[s, e)`.
fn clip(iv: &[(u64, u64)], s: u64, e: u64) -> Vec<(u64, u64)> {
    intersect(iv, &[(s, e)])
}

// ---------------------------------------------------------------------
// Event helpers
// ---------------------------------------------------------------------

fn arg_value(ev: &Event, key: &str) -> Option<u64> {
    match (ev.arg, ev.arg2) {
        (Some((k, v)), _) if k == key => Some(v),
        (_, Some((k, v))) if k == key => Some(v),
        _ => None,
    }
}

fn is_span(ev: &Event) -> bool {
    matches!(ev.phase, Phase::Span { .. })
}

fn is_wait(ev: &Event) -> bool {
    WAIT_SPANS.contains(&ev.name.as_str())
}

/// Busy interval set for one party: all span coverage minus wait spans.
fn busy_intervals(events: &[Event]) -> Vec<(u64, u64)> {
    let mut work = Vec::new();
    let mut wait = Vec::new();
    for ev in events.iter().filter(|e| is_span(e)) {
        let iv = (ev.ts_ns, ev.end_ns());
        if is_wait(ev) {
            wait.push(iv);
        } else {
            work.push(iv);
        }
    }
    subtract(&normalize(work), &normalize(wait))
}

/// Shifts every timestamp of a server event onto the client clock.
fn align(events: &[Event], clock: Option<&ClockEstimate>) -> Vec<Event> {
    let Some(est) = clock else {
        return events.to_vec();
    };
    events
        .iter()
        .map(|ev| {
            let mut ev = ev.clone();
            ev.ts_ns = est.server_to_client_ns(ev.ts_ns);
            ev
        })
        .collect()
}

/// Recovers the clock estimate the client recorded via
/// [`clocksync::record`] from its exported gauges.
pub fn clock_from_events(events: &[Event]) -> Option<ClockEstimate> {
    let find = |name: &str| {
        events.iter().rev().find_map(|ev| match ev.phase {
            Phase::Gauge { value } if ev.name.as_str() == name => Some(value),
            _ => None,
        })
    };
    clocksync::from_gauges(
        find("clock_offset_fwd_ns"),
        find("clock_offset_back_ns"),
        find("clock_rtt_ns"),
        find("clock_err_ns"),
    )
}

// ---------------------------------------------------------------------
// Flow matching
// ---------------------------------------------------------------------

/// Pairs tagged sends from `tx` with tagged receives from `rx` — the
/// k-th send of a tag matches the k-th receive of the same tag (frames
/// are FIFO per transport, so occurrence order is causal order).
fn match_flows(tx: &[Event], rx: &[Event], client_to_server: bool) -> Vec<FlowArrow> {
    let mut sends: HashMap<u64, Vec<&Event>> = HashMap::new();
    for ev in tx
        .iter()
        .filter(|e| is_span(e) && e.name.as_str() == "send")
    {
        if let Some(tag) = arg_value(ev, "flow") {
            sends.entry(tag).or_default().push(ev);
        }
    }
    let mut used: HashMap<u64, usize> = HashMap::new();
    let mut arrows = Vec::new();
    for ev in rx
        .iter()
        .filter(|e| is_span(e) && e.name.as_str() == "recv")
    {
        let Some(tag) = arg_value(ev, "flow") else {
            continue;
        };
        let k = used.entry(tag).or_insert(0);
        if let Some(send) = sends.get(&tag).and_then(|v| v.get(*k)) {
            *k += 1;
            arrows.push(FlowArrow {
                tag,
                client_to_server,
                from_tid: send.tid,
                from_ts_ns: send.ts_ns,
                to_tid: ev.tid,
                to_ts_ns: ev.end_ns().saturating_sub(1).max(ev.ts_ns),
            });
        }
    }
    arrows.sort_by_key(|a| (a.from_ts_ns, a.tag));
    arrows
}

// ---------------------------------------------------------------------
// Layer matching and attribution
// ---------------------------------------------------------------------

fn layer_spans<'a>(events: &'a [Event], prefix: &str) -> Vec<&'a Event> {
    let mut spans: Vec<&Event> = events
        .iter()
        .filter(|e| is_span(e) && e.name.as_str().starts_with(prefix))
        .collect();
    spans.sort_by_key(|e| (e.ts_ns, e.id));
    spans
}

/// Matches client `send_all` spans to server `serve_conv` spans: by the
/// wire-propagated trace id when both sides carry one, otherwise by
/// chronological position (recorded replays have `trace == 0`).
fn match_layers<'a>(client: &'a [Event], server: &'a [Event]) -> Vec<(&'a Event, &'a Event, u64)> {
    let cl = layer_spans(client, "send_all");
    let sv = layer_spans(server, "serve_conv");
    let by_id: Vec<(&Event, &Event, u64)> = sv
        .iter()
        .filter_map(|s| {
            let trace = arg_value(s, "trace").filter(|&t| t != 0)?;
            let c = cl.iter().find(|c| arg_value(c, "trace") == Some(trace))?;
            Some((*c, *s, trace))
        })
        .collect();
    if by_id.len() == sv.len() && !sv.is_empty() {
        return by_id;
    }
    cl.iter()
        .zip(sv.iter())
        .map(|(c, s)| (*c, *s, 0u64))
        .collect()
}

fn attribute_window(
    label: String,
    trace: u64,
    start: u64,
    end: u64,
    client_busy: &[(u64, u64)],
    server_busy: &[(u64, u64)],
    flows: usize,
) -> LayerOverlap {
    let window_ns = end.saturating_sub(start);
    let cb = clip(client_busy, start, end);
    let sb = clip(server_busy, start, end);
    let both = intersect(&cb, &sb);
    let client_busy_ns = measure(&cb);
    let server_busy_ns = measure(&sb);
    let both_busy_ns = measure(&both);
    let client_only_ns = client_busy_ns - both_busy_ns;
    let server_only_ns = server_busy_ns - both_busy_ns;
    let covered = client_busy_ns + server_busy_ns - both_busy_ns;
    let both_idle_ns = window_ns.saturating_sub(covered);
    let denom = client_busy_ns.min(server_busy_ns);
    let efficiency = if denom == 0 {
        0.0
    } else {
        (both_busy_ns as f64 / denom as f64).clamp(0.0, 1.0)
    };
    LayerOverlap {
        label,
        trace,
        window_ns,
        client_busy_ns,
        server_busy_ns,
        both_busy_ns,
        client_only_ns,
        server_only_ns,
        both_idle_ns,
        efficiency,
        flows,
    }
}

// ---------------------------------------------------------------------
// Merge
// ---------------------------------------------------------------------

/// Merges a client and a server trace: aligns clocks, matches layers
/// and flows, computes the attribution, and renders the merged
/// Chrome-trace JSON.
pub fn merge(client: &PartyTrace, server: &PartyTrace) -> Merged {
    let clock = clock_from_events(&client.events);
    let mut client_events = client.events.clone();
    client_events.sort_by_key(|e| (e.ts_ns, e.id));
    let mut server_events = align(&server.events, clock.as_ref());
    server_events.sort_by_key(|e| (e.ts_ns, e.id));

    let flows_up = match_flows(&client_events, &server_events, true);
    let flows_down = match_flows(&server_events, &client_events, false);
    let mut flows = flows_up;
    flows.extend(flows_down);
    flows.sort_by_key(|a| (a.from_ts_ns, a.tag));

    let client_busy = busy_intervals(&client_events);
    let server_busy = busy_intervals(&server_events);

    let layers: Vec<LayerOverlap> = match_layers(&client_events, &server_events)
        .into_iter()
        .enumerate()
        .map(|(i, (c, s, trace))| {
            let start = c.ts_ns.min(s.ts_ns);
            let end = c.end_ns().max(s.end_ns());
            let n_flows = flows
                .iter()
                .filter(|f| f.from_ts_ns >= start && f.from_ts_ns < end)
                .count();
            attribute_window(
                format!("L{i} {}", s.name.as_str()),
                trace,
                start,
                end,
                &client_busy,
                &server_busy,
                n_flows,
            )
        })
        .collect();

    let span_count = |evs: &[Event]| evs.iter().filter(|e| is_span(e)).count();
    let extent = |evs: &[Event]| {
        evs.iter()
            .map(|e| (e.ts_ns, e.end_ns()))
            .fold((u64::MAX, 0u64), |(s, e), (a, b)| (s.min(a), e.max(b)))
    };
    let (cs, ce) = extent(&client_events);
    let (ss, se) = extent(&server_events);
    let (start, end) = if client_events.is_empty() && server_events.is_empty() {
        (0, 0)
    } else {
        (cs.min(ss), ce.max(se))
    };
    let t = attribute_window(
        String::new(),
        0,
        start,
        end,
        &client_busy,
        &server_busy,
        flows.len(),
    );
    let totals = OverlapTotals {
        window_ns: t.window_ns,
        client_busy_ns: t.client_busy_ns,
        server_busy_ns: t.server_busy_ns,
        both_busy_ns: t.both_busy_ns,
        client_only_ns: t.client_only_ns,
        server_only_ns: t.server_only_ns,
        both_idle_ns: t.both_idle_ns,
        efficiency: t.efficiency,
    };

    let report = MergeReport {
        clock,
        layers,
        flows,
        totals,
        client_spans: span_count(&client_events),
        server_spans: span_count(&server_events),
    };
    let json = render_merged_json(
        &client_events,
        &client.threads,
        &server_events,
        &server.threads,
        &report.flows,
    );
    Merged { json, report }
}

// ---------------------------------------------------------------------
// Merged JSON rendering
// ---------------------------------------------------------------------

const CLIENT_PID: u32 = 1;
const SERVER_PID: u32 = 2;

fn render_merged_json(
    client_events: &[Event],
    client_threads: &[(u32, String)],
    server_events: &[Event],
    server_threads: &[(u32, String)],
    flows: &[FlowArrow],
) -> String {
    let mut out = String::with_capacity(
        256 + (client_events.len() + server_events.len()) * 96 + flows.len() * 160,
    );
    out.push_str("[\n");
    let mut first = true;
    let mut emit = |out: &mut String| {
        if first {
            first = false;
        } else {
            out.push_str(",\n");
        }
    };

    for (pid, pname) in [(CLIENT_PID, "spot-client"), (SERVER_PID, "spot-server")] {
        emit(&mut out);
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":\"{pname}\"}}}}"
        );
    }
    for (pid, threads) in [(CLIENT_PID, client_threads), (SERVER_PID, server_threads)] {
        for (tid, name) in threads {
            emit(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":\""
            );
            escape_into(&mut out, name);
            out.push_str("\"}}");
        }
    }

    for (pid, events) in [(CLIENT_PID, client_events), (SERVER_PID, server_events)] {
        for ev in events {
            emit(&mut out);
            push_event(&mut out, ev, pid);
        }
    }

    for (i, f) in flows.iter().enumerate() {
        let (from_pid, to_pid) = if f.client_to_server {
            (CLIENT_PID, SERVER_PID)
        } else {
            (SERVER_PID, CLIENT_PID)
        };
        emit(&mut out);
        let _ = write!(
            out,
            "{{\"name\":\"ct\",\"cat\":\"net\",\"ph\":\"s\",\"id\":{},\"pid\":{from_pid},\"tid\":{},\"ts\":",
            i + 1,
            f.from_tid
        );
        push_us(&mut out, f.from_ts_ns);
        out.push('}');
        emit(&mut out);
        let _ = write!(
            out,
            "{{\"name\":\"ct\",\"cat\":\"net\",\"ph\":\"f\",\"bp\":\"e\",\"id\":{},\"pid\":{to_pid},\"tid\":{},\"ts\":",
            i + 1,
            f.to_tid
        );
        push_us(&mut out, f.to_ts_ns);
        out.push('}');
    }

    out.push_str("\n]\n");
    out
}

// ---------------------------------------------------------------------
// Report rendering
// ---------------------------------------------------------------------

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

impl MergeReport {
    /// Plain-text attribution table plus the summary lines the smoke
    /// tests grep for.
    pub fn text(&self) -> String {
        let mut out = String::new();
        match &self.clock {
            Some(c) => {
                let _ = writeln!(
                    out,
                    "clock: server-client offset {:+.3} ms (rtt {:.3} ms, err <= {:.3} ms)",
                    c.offset_ns as f64 / 1e6,
                    ms(c.rtt_ns),
                    ms(c.err_ns),
                );
            }
            None => {
                let _ = writeln!(out, "clock: no estimate in client trace (unaligned merge)");
            }
        }
        let _ = writeln!(
            out,
            "spans: {} client, {} server; flows: {}",
            self.client_spans,
            self.server_spans,
            self.flows.len()
        );
        let _ = writeln!(
            out,
            "{:<22} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>6}",
            "layer", "window", "c-busy", "s-busy", "overlap", "c-only", "s-only", "idle", "eff"
        );
        for l in &self.layers {
            let _ = writeln!(
                out,
                "{:<22} {:>8.2}m {:>8.2}m {:>8.2}m {:>8.2}m {:>8.2}m {:>8.2}m {:>8.2}m {:>5.1}%",
                l.label,
                ms(l.window_ns),
                ms(l.client_busy_ns),
                ms(l.server_busy_ns),
                ms(l.both_busy_ns),
                ms(l.client_only_ns),
                ms(l.server_only_ns),
                ms(l.both_idle_ns),
                l.efficiency * 100.0,
            );
        }
        let t = &self.totals;
        let _ = writeln!(
            out,
            "critical path: client-only {:.2} ms, server-only {:.2} ms, overlapped {:.2} ms, both-idle {:.2} ms",
            ms(t.client_only_ns),
            ms(t.server_only_ns),
            ms(t.both_busy_ns),
            ms(t.both_idle_ns),
        );
        let _ = writeln!(
            out,
            "overlap efficiency: {:.4} (both-busy {:.2} ms / min-busy {:.2} ms)",
            t.efficiency,
            ms(t.both_busy_ns),
            ms(t.client_busy_ns.min(t.server_busy_ns)),
        );
        out
    }

    /// JSON report (`spot-bench-pipeline/v1`), shaped for `bench_check`:
    /// layer objects lead with a string `layer` key so the flattener
    /// names them, and the volatile clock numbers stay out.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"schema\": \"spot-bench-pipeline/v1\",\n");
        let _ = writeln!(out, "  \"layer_count\": {},", self.layers.len());
        let _ = writeln!(out, "  \"flow_count\": {},", self.flows.len());
        out.push_str("  \"layers\": [\n");
        for (i, l) in self.layers.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"layer\": \"{}\", \"spot_overlap_efficiency\": {:.4}, \"flows\": {}}}",
                l.label.replace('"', ""),
                l.efficiency,
                l.flows
            );
            out.push_str(if i + 1 < self.layers.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n");
        let _ = writeln!(
            out,
            "  \"overall\": {{\"spot_overlap_efficiency\": {:.4}}}",
            self.totals.efficiency
        );
        out.push_str("}\n");
        out
    }
}

// ---------------------------------------------------------------------
// Chrome-trace reader
// ---------------------------------------------------------------------

/// Arg keys the tracer emits; parsed args must intern to one of these
/// (`Event` arg keys are `&'static str`). Unknown keys are dropped —
/// the merge itself only consumes `flow` and `trace`.
const KNOWN_ARG_KEYS: [&str; 10] = [
    "batch",
    "bytes",
    "extra",
    "flow",
    "input_cts",
    "output_cts",
    "round",
    "session",
    "trace",
    "workers",
];

fn intern_arg_key(key: &str) -> Option<&'static str> {
    KNOWN_ARG_KEYS.iter().find(|&&k| k == key).copied()
}

/// Converts the exporter's microsecond field (printed `<us>.<3 digits>`)
/// back to integer nanoseconds.
fn us_field_ns(us: f64) -> u64 {
    (us * 1_000.0).round() as u64
}

/// Reads one party's Chrome-trace export (as written by
/// [`crate::chrome::chrome_trace_json_with_threads`]) back into a
/// [`PartyTrace`]. Flow events (`ph` `"s"`/`"f"`, present only in
/// already-merged files) are skipped — the merge re-derives them — and
/// unknown arg keys are dropped.
pub fn parse_chrome_trace(json: &str) -> Result<PartyTrace, String> {
    use crate::json::Value;
    let doc = crate::json::parse(json)?;
    let items = doc.as_array().ok_or("trace root must be a JSON array")?;
    let mut party = PartyTrace::default();
    for item in items {
        let ph = item
            .get("ph")
            .and_then(Value::as_str)
            .ok_or("event without ph")?;
        let tid = item.get("tid").and_then(Value::as_f64).unwrap_or(0.0) as u32;
        let name = item.get("name").and_then(Value::as_str).unwrap_or("");
        let args = item.get("args");
        let arg_f64 = |key: &str| args.and_then(|a| a.get(key)).and_then(Value::as_f64);
        match ph {
            "M" => {
                if name == "thread_name" {
                    if let Some(n) = args.and_then(|a| a.get("name")).and_then(Value::as_str) {
                        party.threads.push((tid, n.to_string()));
                    }
                }
                continue;
            }
            "s" | "f" | "t" => continue,
            _ => {}
        }
        let ts_ns = us_field_ns(
            item.get("ts")
                .and_then(Value::as_f64)
                .ok_or("event without ts")?,
        );
        let phase = match ph {
            "X" => Phase::Span {
                dur_ns: us_field_ns(item.get("dur").and_then(Value::as_f64).unwrap_or(0.0)),
            },
            "i" => Phase::Instant,
            "C" => Phase::Gauge {
                value: arg_f64("value").unwrap_or(0.0) as u64,
            },
            other => return Err(format!("unsupported event phase {other:?}")),
        };
        let (mut arg, mut arg2) = (None, None);
        if let Some(Value::Object(members)) = args {
            for (k, v) in members {
                if matches!(k.as_str(), "span" | "parent" | "value") {
                    continue;
                }
                let (Some(key), Some(v)) = (intern_arg_key(k), v.as_f64()) else {
                    continue;
                };
                if arg.is_none() {
                    arg = Some((key, v as u64));
                } else if arg2.is_none() {
                    arg2 = Some((key, v as u64));
                }
            }
        }
        party.events.push(Event {
            name: Name::Owned(name.to_string()),
            cat: item
                .get("cat")
                .and_then(Value::as_str)
                .and_then(Cat::from_name)
                .unwrap_or(Cat::App),
            ts_ns,
            tid,
            id: arg_f64("span").unwrap_or(0.0) as u32,
            parent: arg_f64("parent").unwrap_or(0.0) as u32,
            arg,
            arg2,
            phase,
        });
    }
    Ok(party)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::too_many_arguments)]
    fn sp(
        name: &'static str,
        cat: Cat,
        ts: u64,
        dur: u64,
        tid: u32,
        id: u32,
        arg: Option<(&'static str, u64)>,
        arg2: Option<(&'static str, u64)>,
    ) -> Event {
        Event {
            name: Name::Static(name),
            cat,
            ts_ns: ts,
            tid,
            id,
            parent: 0,
            arg,
            arg2,
            phase: Phase::Span { dur_ns: dur },
        }
    }

    fn gauge_ev(name: &'static str, value: u64) -> Event {
        Event {
            name: Name::Static(name),
            cat: Cat::Net,
            ts_ns: 0,
            tid: 1,
            id: 0,
            parent: 0,
            arg: None,
            arg2: None,
            phase: Phase::Gauge { value },
        }
    }

    #[test]
    fn interval_arithmetic() {
        let n = normalize(vec![(5, 10), (1, 3), (9, 12), (12, 12)]);
        assert_eq!(n, vec![(1, 3), (5, 12)]);
        assert_eq!(measure(&n), 9);
        let s = subtract(&n, &[(2, 6), (11, 20)]);
        assert_eq!(s, vec![(1, 2), (6, 11)]);
        let i = intersect(&n, &[(0, 2), (8, 30)]);
        assert_eq!(i, vec![(1, 2), (8, 12)]);
        assert_eq!(clip(&n, 6, 10), vec![(6, 10)]);
        assert!(subtract(&[], &[(0, 5)]).is_empty());
        assert!(intersect(&n, &[]).is_empty());
    }

    #[test]
    fn busy_excludes_wait_spans() {
        // Work 0..100 with a recv wait 40..70 nested inside.
        let events = vec![
            sp("send_all spot", Cat::Client, 0, 100, 1, 1, None, None),
            sp("recv", Cat::Net, 40, 30, 1, 2, None, None),
        ];
        let busy = busy_intervals(&events);
        assert_eq!(busy, vec![(0, 40), (70, 100)]);
        assert_eq!(measure(&busy), 70);
    }

    #[test]
    fn flows_match_kth_occurrence() {
        let tx = vec![
            sp(
                "send",
                Cat::Net,
                0,
                5,
                1,
                1,
                Some(("bytes", 9)),
                Some(("flow", 7)),
            ),
            sp(
                "send",
                Cat::Net,
                10,
                5,
                1,
                2,
                Some(("bytes", 9)),
                Some(("flow", 7)),
            ),
            sp("send", Cat::Net, 20, 5, 1, 3, Some(("bytes", 9)), None), // untagged
        ];
        let rx = vec![
            sp(
                "recv",
                Cat::Net,
                4,
                6,
                9,
                4,
                Some(("bytes", 9)),
                Some(("flow", 7)),
            ),
            sp(
                "recv",
                Cat::Net,
                14,
                6,
                9,
                5,
                Some(("bytes", 9)),
                Some(("flow", 7)),
            ),
            sp(
                "recv",
                Cat::Net,
                30,
                6,
                9,
                6,
                Some(("bytes", 9)),
                Some(("flow", 99)),
            ), // no send
        ];
        let arrows = match_flows(&tx, &rx, true);
        assert_eq!(arrows.len(), 2);
        assert_eq!(arrows[0].from_ts_ns, 0);
        assert_eq!(arrows[0].to_ts_ns, 9); // end − 1
        assert_eq!(arrows[1].from_ts_ns, 10);
        assert!(arrows.iter().all(|a| a.tag == 7 && a.client_to_server));
    }

    #[test]
    fn merge_attributes_overlap_and_renders_valid_json() {
        // Client: layer span 0..100 busy throughout except recv 60..90.
        // Server clock runs 1000 ns ahead; its serve span covers
        // (client time) 20..80.
        let client = PartyTrace {
            events: vec![
                sp(
                    "send_all spot",
                    Cat::Client,
                    0,
                    100,
                    1,
                    1,
                    Some(("input_cts", 4)),
                    Some(("trace", 42)),
                ),
                sp("recv", Cat::Net, 60, 30, 1, 2, None, None),
                sp(
                    "send",
                    Cat::Net,
                    5,
                    5,
                    1,
                    3,
                    Some(("bytes", 64)),
                    Some(("flow", 7)),
                ),
                gauge_ev("clock_offset_fwd_ns", 1000),
                gauge_ev("clock_rtt_ns", 200),
                gauge_ev("clock_err_ns", 100),
            ],
            threads: vec![(1, "main".into())],
        };
        let server = PartyTrace {
            events: vec![
                sp(
                    "serve_conv spot",
                    Cat::Server,
                    1020,
                    60,
                    1,
                    10,
                    Some(("trace", 42)),
                    None,
                ),
                sp(
                    "recv",
                    Cat::Net,
                    1002,
                    6,
                    1,
                    11,
                    Some(("bytes", 64)),
                    Some(("flow", 7)),
                ),
            ],
            threads: vec![(1, "main".into())],
        };
        let merged = merge(&client, &server);
        let r = &merged.report;
        assert_eq!(r.clock.map(|c| c.offset_ns), Some(1000));
        assert_eq!(r.layers.len(), 1);
        let l = &r.layers[0];
        assert_eq!(l.trace, 42);
        assert_eq!(l.window_ns, 100);
        // Client busy 0..60 ∪ 90..100 = 70; server busy 20..80 = 60
        // minus nothing (recv at 2..8 is outside the serve span).
        assert_eq!(l.client_busy_ns, 70);
        assert_eq!(l.server_busy_ns, 60);
        // Overlap: (0..60 ∪ 90..100) ∩ (20..80) = 20..60 = 40.
        assert_eq!(l.both_busy_ns, 40);
        assert_eq!(l.client_only_ns, 30);
        assert_eq!(l.server_only_ns, 20);
        assert!((l.efficiency - 40.0 / 60.0).abs() < 1e-9);
        assert_eq!(r.flows.len(), 1);
        assert!(r.flows[0].client_to_server);
        crate::json::validate(&merged.json).expect("merged trace is valid JSON");
        assert!(merged.json.contains("\"ph\":\"s\""));
        assert!(merged.json.contains("\"bp\":\"e\""));
        assert!(merged.json.contains("\"pid\":2"));
        assert!(merged.json.contains("spot-server"));
        let text = r.text();
        assert!(text.contains("overlap efficiency:"), "{text}");
        let json = r.to_json();
        crate::json::validate(&json).expect("report json");
        assert!(json.contains("spot_overlap_efficiency"));
    }

    #[test]
    fn chrome_export_parses_back_losslessly() {
        let events = vec![
            sp(
                "send_all spot",
                Cat::Client,
                1_000,
                99_499,
                1,
                1,
                Some(("input_cts", 4)),
                Some(("trace", 42)),
            ),
            sp(
                "recv",
                Cat::Net,
                2_500,
                750,
                2,
                2,
                Some(("bytes", 64)),
                Some(("flow", 7)),
            ),
            gauge_ev("clock_offset_fwd_ns", 1234),
            Event {
                name: Name::Owned("mark \"x\"".into()),
                cat: Cat::App,
                ts_ns: 77,
                tid: 1,
                id: 0,
                parent: 1,
                arg: None,
                arg2: None,
                phase: Phase::Instant,
            },
        ];
        let threads = vec![(1, "main".to_string()), (2, "server-0".to_string())];
        let json = crate::chrome::chrome_trace_json_with_threads(&events, &threads);
        let back = parse_chrome_trace(&json).expect("parse exported trace");
        assert_eq!(back.threads, threads);
        assert_eq!(back.events.len(), events.len());
        for (got, want) in back.events.iter().zip(&events) {
            assert_eq!(got.name.as_str(), want.name.as_str());
            assert_eq!(got.cat, want.cat);
            assert_eq!(got.ts_ns, want.ts_ns);
            assert_eq!(got.tid, want.tid);
            assert_eq!(got.id, want.id);
            assert_eq!(got.parent, want.parent);
            assert_eq!(got.arg, want.arg);
            assert_eq!(got.arg2, want.arg2);
            assert_eq!(got.phase, want.phase);
        }
    }

    #[test]
    fn chronological_fallback_when_trace_ids_absent() {
        let client = PartyTrace {
            events: vec![
                sp("send_all spot", Cat::Client, 0, 50, 1, 1, None, None),
                sp("send_all spot", Cat::Client, 100, 50, 1, 2, None, None),
            ],
            threads: vec![],
        };
        let server = PartyTrace {
            events: vec![
                sp("serve_conv spot", Cat::Server, 10, 30, 1, 3, None, None),
                sp("serve_conv spot", Cat::Server, 110, 30, 1, 4, None, None),
            ],
            threads: vec![],
        };
        let merged = merge(&client, &server);
        assert_eq!(merged.report.layers.len(), 2);
        assert!(merged.report.layers.iter().all(|l| l.trace == 0));
        assert_eq!(merged.report.layers[0].window_ns, 50);
        assert_eq!(merged.report.layers[1].window_ns, 50);
    }
}
