//! Per-layer numbers of one traced request: phases derived from the
//! message timeline, per-layer metric values, and the client-side
//! budget whose lines must add up to the measured latency.

use crate::spans::{nest, path, self_times_ns, Party, Span};
use crate::tap::{Dir, Kind};
use crate::workloads::Outcome;
use spot_trace::Counter;

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Indices of the transport spans of one thread, in start order.
fn thread_calls(spans: &[Span], party: Party, lane: u32) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].party == party && spans[i].lane == lane && spans[i].message.is_some())
        .collect();
    idx.sort_by_key(|&i| spans[i].start_ns);
    idx
}

fn is_msg(span: &Span, dir: Dir, kind: Kind) -> bool {
    matches!(span.message, Some((d, k, _)) if d == dir && k == kind)
}

fn phase(name: &str, like: &Span, start_ns: u64, end_ns: u64) -> Span {
    Span {
        lane: like.lane,
        ..Span::call(name, like.party, like.request, start_ns, end_ns)
    }
}

/// Adds the phases the message timeline implies, then nests all spans.
///
/// * client, on whichever thread uploads: `galois_phase` (`Setup` send
///   starts -> `GaloisKeys` send returns: public key, Galois keygen,
///   serialisation, upload) and `upload` (-> last input ciphertext
///   send returns: encode, encrypt, serialise, back-pressure);
/// * server: `key_ingest` (`GaloisKeys` received -> `LayerBarrier`
///   sent: deserialise and validate the rotation keys);
/// * TinyCnn client thread: `conv1`, `relu`, `maxpool`, `reveal`,
///   `conv2`, `relu`, `reveal`, `teardown`, cut at the non-linear
///   rounds' first send and the reveals' receive.
pub fn derive_phases(spans: &mut Vec<Span>) {
    let mut derived = Vec::new();
    let client_threads = spans
        .iter()
        .filter(|s| s.party == Party::Client)
        .map(|s| s.lane)
        .max()
        .map_or(0, |last| last + 1);
    for lane in 0..client_threads {
        let calls = thread_calls(spans, Party::Client, lane);
        let mut i = 0;
        while i < calls.len() {
            let setup = &spans[calls[i]];
            i += 1;
            if !is_msg(setup, Dir::Send, Kind::Setup) {
                continue;
            }
            let mut upload_from = setup.end_ns;
            if let Some(&g) = calls.get(i) {
                if is_msg(&spans[g], Dir::Send, Kind::GaloisKeys) {
                    upload_from = spans[g].end_ns;
                    derived.push(phase("galois_phase", setup, setup.start_ns, upload_from));
                    i += 1;
                }
            }
            // A paced upload waits for the server's ack before the
            // first input ciphertext.
            if let Some(&a) = calls.get(i) {
                if is_msg(&spans[a], Dir::Recv, Kind::LayerBarrier) {
                    upload_from = spans[a].end_ns;
                    i += 1;
                }
            }
            let mut upload_to = None;
            while let Some(&c) = calls.get(i) {
                match spans[c].message {
                    Some((Dir::Send, kind, _)) if kind.is_input_ct() => {
                        upload_to = Some(spans[c].end_ns);
                        i += 1;
                    }
                    _ => break,
                }
            }
            if let Some(end) = upload_to {
                derived.push(phase("upload", setup, upload_from, end));
            }
        }
    }
    let server = thread_calls(spans, Party::Server, 0);
    for pair in server.windows(2) {
        let (keys, ack) = (&spans[pair[0]], &spans[pair[1]]);
        if is_msg(keys, Dir::Recv, Kind::GaloisKeys) && is_msg(ack, Dir::Send, Kind::LayerBarrier) {
            derived.push(phase("key_ingest", keys, keys.end_ns, ack.end_ns));
        }
    }
    if let Some(call) = spans.iter().find(|s| s.name == "run_client_batch") {
        let calls = thread_calls(spans, Party::Client, 0);
        let mut cuts: Vec<(&str, u64)> = vec![("conv1", call.start_ns)];
        let mut convs = 1;
        for &c in &calls {
            let s = &spans[c];
            match s.message {
                Some((Dir::Send, Kind::OtRelu, _)) => cuts.push(("relu", s.start_ns)),
                Some((Dir::Send, Kind::OtMaxpool, _)) => cuts.push(("maxpool", s.start_ns)),
                Some((Dir::Recv, Kind::ShareReveal, _)) => {
                    cuts.push(("reveal", s.start_ns));
                    convs += 1;
                    cuts.push((if convs == 2 { "conv2" } else { "teardown" }, s.end_ns));
                }
                _ => {}
            }
        }
        cuts.push(("", call.end_ns));
        for pair in cuts.windows(2) {
            derived.push(phase(pair[0].0, call, pair[0].1, pair[1].1));
        }
    }
    spans.extend(derived);
    nest(spans);
}

/// One line of the client-side budget.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetLine {
    /// Span path on the client's own thread; a trailing `recv ...`
    /// component is time spent waiting for the server, a `send ...`
    /// component time inside the transport's send, anything else the
    /// client's own work (self time).
    pub path: String,
    pub ns: u64,
}

/// Everything the traced pass keeps of one request.
#[derive(Debug, Clone)]
pub struct LayerSample {
    pub request: u64,
    pub latency_ns: u64,
    /// `(metric name, value)`; names are the per-layer metric names
    /// without the per-workload applicability filter.
    pub values: Vec<(&'static str, f64)>,
    pub budget: Vec<BudgetLine>,
    /// Share of the latency no named span or transport call covers.
    pub residual_share: f64,
}

fn named_ns(spans: &[Span], party: Party, name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.party == party && s.name == name && s.message.is_none())
        .map(Span::duration_ns)
        .sum()
}

fn message_sum(spans: &[Span], party: Party, pick: impl Fn(Dir, Kind) -> bool) -> (u64, u64, u64) {
    let (mut ns, mut bytes, mut frames) = (0, 0, 0);
    for s in spans.iter().filter(|s| s.party == party) {
        if let Some((dir, kind, b)) = s.message {
            if pick(dir, kind) {
                ns += s.duration_ns();
                bytes += b;
                frames += 1;
            }
        }
    }
    (ns, bytes, frames)
}

/// The decorator's byte and frame totals must equal what the endpoint
/// itself counted; anything else means the tap mis-measures the wire.
fn check_against_endpoint(out: &Outcome) -> Result<(), String> {
    for (party, label, net) in [
        (Party::Client, "client", &out.client_net),
        (Party::Server, "server", &out.server_net),
    ] {
        let (_, sent_bytes, sent_frames) = message_sum(&out.spans, party, |d, _| d == Dir::Send);
        let (_, recv_bytes, recv_frames) = message_sum(&out.spans, party, |d, k| {
            d == Dir::Recv && k != Kind::Failed
        });
        let tap = (sent_bytes, sent_frames, recv_bytes, recv_frames);
        let endpoint = (
            net.sent.bytes,
            net.sent.messages,
            net.received.bytes,
            net.received.messages,
        );
        if tap != endpoint {
            return Err(format!(
                "request {}: {label} tap saw (sent B, sent frames, recv B, recv frames) = {tap:?} \
                 but its TransportStats say {endpoint:?}",
                out.request
            ));
        }
    }
    Ok(())
}

/// Reduces one traced request (spans already through
/// [`derive_phases`]) to its per-layer values and budget.
pub fn layer_sample(out: &Outcome) -> Result<LayerSample, String> {
    check_against_endpoint(out)?;
    let spans = &out.spans;
    let (client_send_ns, _, _) = message_sum(spans, Party::Client, |d, _| d == Dir::Send);
    let (client_recv_ns, _, _) = message_sum(spans, Party::Client, |d, _| d == Dir::Recv);
    let (server_send_ns, _, _) = message_sum(spans, Party::Server, |d, _| d == Dir::Send);
    let (server_recv_ns, _, _) = message_sum(spans, Party::Server, |d, _| d == Dir::Recv);
    let (_, galois_bytes, _) = message_sum(spans, Party::Client, |d, k| {
        d == Dir::Send && k == Kind::GaloisKeys
    });
    let (_, ct_up, _) = message_sum(spans, Party::Client, |d, k| {
        d == Dir::Send && k.is_input_ct()
    });
    let (_, ct_down, _) = message_sum(spans, Party::Client, |d, k| {
        d == Dir::Recv && k == Kind::MaskedResult
    });
    let (_, nonlinear, _) = message_sum(spans, Party::Client, |_, k| k.is_nonlinear());
    let busy = out.stream.server_busy_s;
    let idle = out.stream.server_idle_s;
    let client = |name| secs(named_ns(spans, Party::Client, name));
    let server = |name| secs(named_ns(spans, Party::Server, name));
    let values = vec![
        ("he.rotations_per_req", out.ops.rotate as f64),
        ("he.mult_plain_per_req", out.ops.mult_plain as f64),
        ("he.add_per_req", out.ops.add as f64),
        ("he.encrypt_per_req", out.ops.encrypt as f64),
        ("he.decrypt_per_req", out.ops.decrypt as f64),
        ("proto.client_send_s", secs(client_send_ns)),
        ("proto.client_recv_wait_s", secs(client_recv_ns)),
        ("proto.server_send_s", secs(server_send_ns)),
        ("proto.server_recv_wait_s", secs(server_recv_ns)),
        (
            "proto.send_blocked_s",
            out.client_net.send_blocked.as_secs_f64(),
        ),
        (
            "proto.frames_up_per_req",
            out.client_net.sent.messages as f64,
        ),
        (
            "proto.frames_down_per_req",
            out.client_net.received.messages as f64,
        ),
        ("proto.galois_bytes_per_req", galois_bytes as f64),
        ("proto.ct_bytes_up_per_req", ct_up as f64),
        ("proto.ct_bytes_down_per_req", ct_down as f64),
        ("proto.nonlinear_bytes_per_req", nonlinear as f64),
        ("session.client_new_s", client("ClientConv::new")),
        ("session.send_all_s", client("send_all")),
        ("session.absorb_all_s", client("absorb_all")),
        ("session.serve_conv_s", server("serve_conv_with")),
        ("session.galois_phase_s", client("galois_phase")),
        ("session.key_ingest_s", server("key_ingest")),
        ("session.input_cts_per_req", out.input_cts as f64),
        ("session.output_cts_per_req", out.output_cts as f64),
        ("stream.wall_s", out.stream.wall_s),
        ("stream.server_busy_s", busy),
        ("stream.server_idle_s", idle),
        ("stream.client_blocked_s", out.stream.client_blocked_s),
        (
            "stream.server_busy_share",
            if busy + idle > 0.0 {
                busy / (busy + idle)
            } else {
                0.0
            },
        ),
        (
            "serving.kernel_cache_hits_per_req",
            out.counters.get(Counter::KernelCacheHit) as f64,
        ),
        ("serving.session_wall_s", secs(out.server_wall_ns)),
        ("twoparty.conv1_s", client("conv1")),
        ("twoparty.conv2_s", client("conv2")),
        ("twoparty.relu_round_s", client("relu")),
        ("twoparty.maxpool_round_s", client("maxpool")),
        ("twoparty.reveal_s", client("reveal")),
    ];

    // Budget: self time of every span on the client's own thread. They
    // partition the root span, so the lines sum to the latency; what
    // the root keeps for itself is time no named span accounts for. A
    // wait (`recv`) is split by what the request was actually held up
    // by: the client's own uploader thread, the server ingesting keys,
    // or the server otherwise. An eager uploader keeps sending while
    // the server ingests keys, so where the two overlap the ingest,
    // which is what the ack waits for, takes the blame.
    let mut causes: Vec<(u8, String, u64, u64)> = spans
        .iter()
        .filter(|s| s.message.is_none())
        .filter_map(|s| {
            match (s.party, s.name.as_str()) {
                (Party::Client, "galois_phase") if s.lane != 0 => Some((0, "own uploader thread")),
                (Party::Server, "key_ingest") => Some((1, "server")),
                (Party::Client, "upload") if s.lane != 0 => Some((2, "own uploader thread")),
                _ => None,
            }
            .map(|(rank, who)| (rank, format!("{who}: {}", s.name), s.start_ns, s.end_ns))
        })
        .collect();
    causes.sort_by_key(|c| c.0);
    let own = self_times_ns(spans);
    let mut budget: Vec<BudgetLine> = Vec::new();
    let mut add = |path: String, ns: u64| match budget.iter_mut().find(|l| l.path == path) {
        Some(line) => line.ns += ns,
        None => budget.push(BudgetLine { path, ns }),
    };
    let mut residual_ns = 0;
    for (i, s) in spans.iter().enumerate() {
        if s.party != Party::Client || s.lane != 0 {
            continue;
        }
        if s.parent.is_none() {
            residual_ns += own[i];
            continue;
        }
        let p = path(spans, i);
        if !matches!(s.message, Some((Dir::Recv, ..))) {
            add(p, own[i]);
            continue;
        }
        // Cut each cause's interval out of what is left of the wait.
        let mut left = vec![(s.start_ns, s.end_ns)];
        for (_, cause, from, to) in &causes {
            let mut taken = 0;
            let mut next = Vec::with_capacity(left.len() + 1);
            for (a, b) in left {
                let (lo, hi) = (a.max(*from), b.min(*to));
                if lo >= hi {
                    next.push((a, b));
                    continue;
                }
                taken += hi - lo;
                if a < lo {
                    next.push((a, lo));
                }
                if hi < b {
                    next.push((hi, b));
                }
            }
            left = next;
            if taken > 0 {
                add(format!("{p} [{cause}]"), taken);
            }
        }
        add(
            format!("{p} [server]"),
            left.iter().map(|(a, b)| b - a).sum(),
        );
    }
    Ok(LayerSample {
        request: out.request,
        latency_ns: out.latency_ns,
        values,
        budget,
        residual_share: residual_ns as f64 / out.latency_ns as f64,
    })
}

/// Metrics that must read the same on every request of a workload.
pub const EXACT: [&str; 14] = [
    "he.rotations_per_req",
    "he.mult_plain_per_req",
    "he.add_per_req",
    "he.encrypt_per_req",
    "he.decrypt_per_req",
    "proto.frames_up_per_req",
    "proto.frames_down_per_req",
    "proto.galois_bytes_per_req",
    "proto.ct_bytes_up_per_req",
    "proto.ct_bytes_down_per_req",
    "proto.nonlinear_bytes_per_req",
    "session.input_cts_per_req",
    "session.output_cts_per_req",
    "serving.kernel_cache_hits_per_req",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tap::Call;

    fn call(lane: u32, dir: Dir, kind: Kind, start_ns: u64, end_ns: u64) -> Call {
        Call {
            lane,
            dir,
            kind,
            bytes: 10,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn tinycnn_phases_partition_the_client_call() {
        use Dir::{Recv, Send};
        let mut spans = vec![
            Span::call("request", Party::Client, 3, 0, 1000),
            Span::call("run_client_batch", Party::Client, 3, 10, 990),
        ];
        let client = [
            // uploader thread, conv1
            call(1, Send, Kind::Setup, 12, 13),
            call(1, Send, Kind::GaloisKeys, 100, 120),
            call(1, Send, Kind::PackedCt, 150, 160),
            call(1, Send, Kind::AuxCt, 170, 180),
            // client thread
            call(0, Recv, Kind::LayerBarrier, 11, 140),
            call(0, Recv, Kind::MaskedResult, 141, 300),
            call(0, Send, Kind::OtRelu, 320, 321),
            call(0, Recv, Kind::OtRelu, 321, 340),
            call(0, Send, Kind::OtMaxpool, 350, 351),
            call(0, Recv, Kind::OtMaxpool, 351, 370),
            call(0, Recv, Kind::ShareReveal, 371, 380),
            call(0, Recv, Kind::MaskedResult, 400, 700),
            call(0, Send, Kind::OtRelu, 720, 721),
            call(0, Recv, Kind::OtRelu, 721, 740),
            call(0, Recv, Kind::ShareReveal, 741, 750),
            call(0, Send, Kind::Teardown, 980, 985),
        ];
        spans.extend(client.iter().map(|c| Span::transport(c, Party::Client, 3)));
        let server = [
            call(0, Recv, Kind::Setup, 5, 14),
            call(0, Recv, Kind::GaloisKeys, 14, 121),
            call(0, Send, Kind::LayerBarrier, 138, 139),
        ];
        spans.extend(server.iter().map(|c| Span::transport(c, Party::Server, 3)));
        derive_phases(&mut spans);

        let dur = |party, name| named_ns(&spans, party, name);
        assert_eq!(dur(Party::Client, "galois_phase"), 120 - 12);
        assert_eq!(dur(Party::Client, "upload"), 180 - 120);
        assert_eq!(dur(Party::Server, "key_ingest"), 139 - 121);
        assert_eq!(dur(Party::Client, "conv1"), 320 - 10);
        assert_eq!(dur(Party::Client, "relu"), (350 - 320) + (741 - 720));
        assert_eq!(dur(Party::Client, "maxpool"), 371 - 350);
        assert_eq!(dur(Party::Client, "reveal"), (380 - 371) + (750 - 741));
        assert_eq!(dur(Party::Client, "conv2"), 720 - 380);
        assert_eq!(dur(Party::Client, "teardown"), 990 - 750);

        // The budget closes: phase self times plus transport time plus
        // the uncovered residual equal the request exactly.
        let out = Outcome {
            request: 3,
            latency_ns: 1000,
            client_net: net(&client),
            server_net: net(&server),
            spans,
            ..Outcome::default()
        };
        let sample = layer_sample(&out).expect("tap totals match the endpoint");
        let lines: u64 = sample.budget.iter().map(|l| l.ns).sum();
        assert_eq!(lines + 20, 1000);
        assert_eq!(sample.residual_share, 0.02);
        let wait = sample
            .budget
            .iter()
            .find(|l| l.path == "request/run_client_batch/conv2/recv MaskedResult [server]")
            .expect("conv2 wait line");
        assert_eq!(wait.ns, 300);
        // conv1's wait for the ack is charged to whoever held it up:
        // the client's own key generation first, then the server.
        let line = |suffix: &str| {
            let path = format!("request/run_client_batch/conv1/recv LayerBarrier [{suffix}]");
            sample.budget.iter().find(|l| l.path == path).map(|l| l.ns)
        };
        assert_eq!(line("own uploader thread: galois_phase"), Some(120 - 12));
        assert_eq!(line("server: key_ingest"), Some(139 - 121));
        // [120, 121) and [139, 140) fall inside the eager upload; only
        // [11, 12) has nothing else to blame.
        assert_eq!(line("own uploader thread: upload"), Some(2));
        assert_eq!(line("server"), Some(1));
    }

    fn net(calls: &[Call]) -> spot_proto::transport::TransportStats {
        let mut net = spot_proto::transport::TransportStats::default();
        for c in calls {
            let side = match c.dir {
                Dir::Send => &mut net.sent,
                Dir::Recv => &mut net.received,
            };
            side.bytes += c.bytes;
            side.messages += 1;
        }
        net
    }

    #[test]
    fn tap_totals_that_disagree_with_the_endpoint_are_reported() {
        let sent = [call(0, Dir::Send, Kind::Setup, 1, 2)];
        let mut out = Outcome {
            request: 9,
            latency_ns: 10,
            client_net: net(&sent),
            ..Outcome::default()
        };
        out.spans
            .push(Span::call("request", Party::Client, 9, 0, 10));
        let err = layer_sample(&out).expect_err("tap saw nothing");
        assert!(err.contains("request 9") && err.contains("client"), "{err}");
    }
}
