//! The benchmark's own span recorder: one span per public call the
//! harness makes, per phase it derives from the message timeline, and
//! per transport call a [`Tap`](crate::tap::Tap) saw. Spans live in
//! memory; [`chrome_trace_json`] serialises them when the run ends.

use crate::tap::{Call, Dir, Kind};

/// Which party's thread a span ran on. Lane 0 is the party's own
/// thread; higher lanes are threads the library spawned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Party {
    Client,
    Server,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub party: Party,
    pub lane: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the innermost enclosing span on the same thread; set by
    /// [`nest`].
    pub parent: Option<usize>,
    pub request: u64,
    /// Message kind and framed bytes, for transport-call spans.
    pub message: Option<(Dir, Kind, u64)>,
}

impl Span {
    pub fn call(name: &str, party: Party, request: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: name.to_string(),
            party,
            lane: 0,
            start_ns,
            end_ns,
            parent: None,
            request,
            message: None,
        }
    }

    pub fn transport(call: &Call, party: Party, request: u64) -> Span {
        let verb = match call.dir {
            Dir::Send => "send",
            Dir::Recv => "recv",
        };
        Span {
            name: format!("{verb} {}", call.kind.name()),
            party,
            lane: call.lane,
            start_ns: call.start_ns,
            end_ns: call.end_ns,
            parent: None,
            request,
            message: Some((call.dir, call.kind, call.bytes)),
        }
    }

    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Orders one request's spans by thread then start time and sets each
/// span's `parent` to the innermost span on the same thread that
/// contains it.
pub fn nest(spans: &mut [Span]) {
    spans.sort_by(|a, b| {
        (a.party, a.lane, a.start_ns)
            .cmp(&(b.party, b.lane, b.start_ns))
            .then(b.end_ns.cmp(&a.end_ns))
            // A phase cut exactly around one transport call contains it.
            .then(a.message.is_some().cmp(&b.message.is_some()))
    });
    let mut open: Vec<usize> = Vec::new();
    for i in 0..spans.len() {
        while let Some(&top) = open.last() {
            let same_thread =
                (spans[top].party, spans[top].lane) == (spans[i].party, spans[i].lane);
            if same_thread && spans[i].end_ns <= spans[top].end_ns {
                break;
            }
            open.pop();
        }
        spans[i].parent = open.last().copied();
        open.push(i);
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover. Input must already be [`nest`]ed.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(p) = span.parent {
            own[p] = own[p].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// `a/b/c` path of a span through its ancestors.
pub fn path(spans: &[Span], i: usize) -> String {
    match spans[i].parent {
        Some(p) => format!("{}/{}", path(spans, p), spans[i].name),
        None => spans[i].name.clone(),
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Chrome-trace ("Trace Event Format") JSON of `spans`: one complete
/// (`X`) event each, client and server as two processes, lanes as
/// threads. Loads in Perfetto / `chrome://tracing`.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (pid, label) in [(1, "client"), (2, "server")] {
        out.push_str(&format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":\"{label}\"}}}},\n"
        ));
    }
    for (i, s) in spans.iter().enumerate() {
        let pid = match s.party {
            Party::Client => 1,
            Party::Server => 2,
        };
        let mut args = format!("\"request\":{}", s.request);
        if let Some(p) = s.parent {
            args.push_str(&format!(",\"parent\":{}", json_string(&spans[p].name)));
        }
        if let Some((_, kind, bytes)) = s.message {
            args.push_str(&format!(
                ",\"kind\":{},\"bytes\":{bytes}",
                json_string(kind.name())
            ));
        }
        out.push_str(&format!(
            "{{\"name\":{},\"cat\":\"bench\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{pid},\"tid\":{},\"args\":{{{args}}}}}{}\n",
            json_string(&s.name),
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3,
            s.lane,
            if i + 1 == spans.len() { "" } else { "," }
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, party: Party, lane: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            lane,
            ..Span::call(name, party, 0, start_ns, end_ns)
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut recv = span("recv", Party::Client, 0, 40, 70);
        recv.message = Some((Dir::Recv, Kind::MaskedResult, 1));
        let mut spans = vec![
            recv,
            // A phase cut exactly around that call is its parent.
            span("wait", Party::Client, 0, 40, 70),
            span("request", Party::Client, 0, 0, 100),
            span("send_all", Party::Client, 0, 10, 80),
            span("send", Party::Client, 0, 20, 30),
            span("verify", Party::Client, 0, 90, 95),
            // Same interval on another thread or party never nests.
            span("uploader send", Party::Client, 1, 20, 30),
            span("serve", Party::Server, 0, 5, 99),
        ];
        nest(&mut spans);
        let by_name = |n: &str| spans.iter().position(|s| s.name == n).unwrap();
        let own = self_times_ns(&spans);
        assert_eq!(spans[by_name("request")].parent, None);
        assert_eq!(spans[by_name("send_all")].parent, Some(by_name("request")));
        assert_eq!(spans[by_name("send")].parent, Some(by_name("send_all")));
        assert_eq!(spans[by_name("wait")].parent, Some(by_name("send_all")));
        assert_eq!(spans[by_name("recv")].parent, Some(by_name("wait")));
        assert_eq!(own[by_name("wait")], 0);
        assert_eq!(spans[by_name("verify")].parent, Some(by_name("request")));
        assert_eq!(spans[by_name("uploader send")].parent, None);
        assert_eq!(spans[by_name("serve")].parent, None);
        assert_eq!(own[by_name("request")], 100 - 70 - 5);
        assert_eq!(own[by_name("send_all")], 70 - 10 - 30);
        assert_eq!(own[by_name("send")], 10);
        assert_eq!(path(&spans, by_name("recv")), "request/send_all/wait/recv");
        // One thread's self times add up to its root span exactly.
        let client_main: u64 = spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.party == Party::Client && s.lane == 0)
            .map(|(_, o)| *o)
            .sum();
        assert_eq!(client_main, 100);
    }

    #[test]
    fn chrome_trace_parses_as_json() {
        let mut spans = vec![
            span("request \"0\"", Party::Client, 0, 0, 2_000),
            Span::transport(
                &Call {
                    lane: 0,
                    dir: Dir::Send,
                    kind: Kind::GaloisKeys,
                    bytes: 7,
                    start_ns: 100,
                    end_ns: 900,
                },
                Party::Client,
                0,
            ),
        ];
        nest(&mut spans);
        let doc = spot_trace::json::parse(&chrome_trace_json(&spans)).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(|v| v.as_array()).unwrap();
        assert_eq!(events.len(), 4);
        let last = &events[3];
        assert_eq!(
            last.get("name").and_then(|v| v.as_str()),
            Some("send GaloisKeys")
        );
        assert_eq!(
            last.get("args")
                .and_then(|a| a.get("bytes"))
                .and_then(|v| v.as_f64()),
            Some(7.0)
        );
    }
}
