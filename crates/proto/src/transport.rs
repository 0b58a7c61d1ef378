//! Pluggable message transports: in-process queues and framed TCP.
//!
//! Both implementations move **serialized frames** through one `send`
//! body and one `recv` body (`send_over`, `recv_over`); they differ
//! only in their `Link`, the two methods that move a finished frame's
//! bytes. Traffic accounting therefore reflects real wire bytes (header
//! and payload) and is bit-identical between [`MemTransport`] and
//! [`TcpTransport`].

use crate::channel::TrafficStats;
use crate::error::ProtoError;
use crate::queue::Queue;
use crate::wire::{read_frame, WireMessage};
use spot_trace::{count, Cat, Counter, Span};
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Traffic and stall accounting for one endpoint of a transport.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TransportStats {
    /// Frames sent by this endpoint (framed wire bytes).
    pub sent: TrafficStats,
    /// Frames received by this endpoint (framed wire bytes).
    pub received: TrafficStats,
    /// Time this endpoint spent blocked in `send` on backpressure.
    pub send_blocked: Duration,
}

/// One endpoint's frame tally, and the only place a frame is recorded:
/// [`Tally::sent`] and [`Tally::received`] each feed the typed trace
/// counters (process totals while tracing is on, and the session sink)
/// and this endpoint's [`TransportStats`] from the one
/// byte count they are given.
#[derive(Debug, Default)]
struct Tally(Mutex<TransportStats>);

impl Tally {
    fn sent(&self, bytes: u64, blocked: Duration) -> Result<(), ProtoError> {
        count(Counter::TxBytes, bytes);
        count(Counter::TxFrames, 1);
        count(Counter::TxBlockedNs, blocked.as_nanos() as u64);
        let mut st = self.0.lock().map_err(|_| ProtoError::Poisoned)?;
        st.sent.bytes += bytes;
        st.sent.messages += 1;
        st.send_blocked += blocked;
        Ok(())
    }

    fn received(&self, bytes: u64) -> Result<(), ProtoError> {
        count(Counter::RxBytes, bytes);
        count(Counter::RxFrames, 1);
        let mut st = self.0.lock().map_err(|_| ProtoError::Poisoned)?;
        st.received.bytes += bytes;
        st.received.messages += 1;
        Ok(())
    }

    fn snapshot(&self) -> TransportStats {
        self.0.lock().map(|s| *s).unwrap_or_default()
    }
}

/// A bidirectional, ordered message pipe between the two parties.
///
/// `send` blocks on backpressure (bounded in-memory queue or a full
/// socket buffer); `recv` blocks until a message arrives and returns
/// [`ProtoError::Closed`] once the peer has shut its sending side and
/// the pipe is drained. Implementations are shareable across threads.
pub trait Transport: Send + Sync {
    /// Sends one message to the peer, blocking on backpressure.
    fn send(&self, msg: &WireMessage) -> Result<(), ProtoError>;
    /// Receives the next message, blocking until one arrives.
    fn recv(&self) -> Result<WireMessage, ProtoError>;
    /// Closes this endpoint's sending direction; the peer's `recv`
    /// drains pending messages and then reports [`ProtoError::Closed`].
    fn close_tx(&self);
    /// Accounting snapshot for this endpoint.
    fn stats(&self) -> TransportStats;
}

// ---------------------------------------------------------------------
// The one send body and the one recv body
// ---------------------------------------------------------------------

/// How an endpoint moves the bytes of a finished frame: everything the
/// two transports do not share.
trait Link {
    /// Hands one whole frame to the peer, blocking on backpressure;
    /// returns the time spent blocked.
    fn put(&self, frame: Vec<u8>) -> Result<Duration, ProtoError>;
    /// Takes the bytes of the next whole frame, blocking until one
    /// arrives.
    fn take(&self) -> Result<Vec<u8>, ProtoError>;
}

/// Attaches the frame's causal tag to a live span as its `flow` arg.
fn with_flow(span: Span, msg: &WireMessage) -> Span {
    match msg.causal_tag() {
        Some(tag) if span.id() != 0 => span.arg("flow", tag),
        _ => span,
    }
}

fn send_over(link: &impl Link, tally: &Tally, msg: &WireMessage) -> Result<(), ProtoError> {
    let frame = msg.encode_frame();
    let bytes = frame.len() as u64;
    let span = with_flow(spot_trace::span(Cat::Net, "send").arg("bytes", bytes), msg);
    let blocked = link.put(frame)?;
    drop(span);
    tally.sent(bytes, blocked)
}

fn recv_over(link: &impl Link, tally: &Tally) -> Result<WireMessage, ProtoError> {
    let span = spot_trace::span(Cat::Net, "recv");
    let frame = link.take()?;
    let (msg, used) = WireMessage::decode_frame(&frame)?;
    if used != frame.len() {
        return Err(ProtoError::Malformed("trailing bytes in frame".into()));
    }
    let bytes = frame.len() as u64;
    drop(with_flow(span.arg("bytes", bytes), &msg));
    tally.received(bytes)?;
    Ok(msg)
}

// ---------------------------------------------------------------------
// In-process transport
// ---------------------------------------------------------------------

/// In-process [`Transport`]: both parties run in one process and
/// exchange serialized frames through a pair of [`Queue`]s, one per
/// direction, preserving the byte/message accounting a real socket
/// would see.
#[derive(Debug)]
pub struct MemTransport {
    tx: Arc<Queue<Vec<u8>>>,
    rx: Arc<Queue<Vec<u8>>>,
    tally: Tally,
}

impl MemTransport {
    /// Creates a connected pair `(client, server)` with unbounded
    /// queues in both directions.
    pub fn pair() -> (MemTransport, MemTransport) {
        Self::pair_with_capacity(None, None)
    }

    /// Creates a connected pair `(client, server)` with optional
    /// per-direction frame capacities: `uplink` bounds client→server
    /// (the tiny client's in-flight ciphertext budget), `downlink`
    /// bounds server→client. `None` means unbounded.
    pub fn pair_with_capacity(
        uplink: Option<usize>,
        downlink: Option<usize>,
    ) -> (MemTransport, MemTransport) {
        let queue =
            |bound: Option<usize>| Arc::new(bound.map_or_else(Queue::unbounded, Queue::bounded));
        let (up, down) = (queue(uplink), queue(downlink));
        let client = MemTransport {
            tx: Arc::clone(&up),
            rx: Arc::clone(&down),
            tally: Tally::default(),
        };
        let server = MemTransport {
            tx: down,
            rx: up,
            tally: Tally::default(),
        };
        (client, server)
    }
}

/// The queues: a frame is moved, never copied, only a full queue
/// counts as blocked, and a closed, drained one is the peer's EOF.
impl Link for MemTransport {
    fn put(&self, frame: Vec<u8>) -> Result<Duration, ProtoError> {
        self.tx.send(frame)
    }

    fn take(&self) -> Result<Vec<u8>, ProtoError> {
        self.rx.recv().0.ok_or(ProtoError::Closed)
    }
}

impl Transport for MemTransport {
    fn send(&self, msg: &WireMessage) -> Result<(), ProtoError> {
        send_over(self, &self.tally, msg)
    }

    fn recv(&self) -> Result<WireMessage, ProtoError> {
        recv_over(self, &self.tally)
    }

    fn close_tx(&self) {
        self.tx.close();
    }

    fn stats(&self) -> TransportStats {
        self.tally.snapshot()
    }
}

// ---------------------------------------------------------------------
// TCP transport
// ---------------------------------------------------------------------

/// Framed TCP [`Transport`] for genuine two-process runs over
/// loopback or a LAN.
///
/// Writes flush per message (each frame is one protocol message);
/// reads block on `read_exact`. Backpressure is the socket's own
/// buffer: a blocked `write_all` counts toward `send_blocked`.
#[derive(Debug)]
pub struct TcpTransport {
    // Separate locks, so an uploader thread and an absorber thread
    // share one socket without a blocked read holding up the writes.
    reader: Mutex<BufReader<TcpStream>>,
    writer: Mutex<BufWriter<TcpStream>>,
    stream: TcpStream,
    tally: Tally,
}

impl TcpTransport {
    /// Wraps an accepted or connected stream.
    pub fn from_stream(stream: TcpStream) -> Result<Self, ProtoError> {
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone()?);
        let writer = BufWriter::new(stream.try_clone()?);
        Ok(Self {
            reader: Mutex::new(reader),
            writer: Mutex::new(writer),
            stream,
            tally: Tally::default(),
        })
    }

    /// Connects to a listening peer.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ProtoError> {
        Self::from_stream(TcpStream::connect(addr)?)
    }

    /// Bounds how long a `recv` may block on the socket (`None` =
    /// forever, the default). A serving process applies this per
    /// session so a client that connects and then stalls mid-frame
    /// (slow-loris) fails its own session with an I/O error instead of
    /// pinning a worker indefinitely.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> Result<(), ProtoError> {
        self.stream.set_read_timeout(timeout)?;
        Ok(())
    }
}

/// The socket: the whole write (waiting for the writer lock included)
/// counts as blocked, since a full socket buffer cannot be told apart
/// from a slow one.
impl Link for TcpTransport {
    fn put(&self, frame: Vec<u8>) -> Result<Duration, ProtoError> {
        let t0 = Instant::now();
        let mut w = self.writer.lock().map_err(|_| ProtoError::Poisoned)?;
        w.write_all(&frame)?;
        w.flush()?;
        Ok(t0.elapsed())
    }

    fn take(&self) -> Result<Vec<u8>, ProtoError> {
        let mut r = self.reader.lock().map_err(|_| ProtoError::Poisoned)?;
        read_frame(&mut *r)
    }
}

impl Transport for TcpTransport {
    fn send(&self, msg: &WireMessage) -> Result<(), ProtoError> {
        send_over(self, &self.tally, msg)
    }

    fn recv(&self) -> Result<WireMessage, ProtoError> {
        recv_over(self, &self.tally)
    }

    fn close_tx(&self) {
        if let Ok(mut w) = self.writer.lock() {
            w.flush().ok();
        }
        self.stream.shutdown(std::net::Shutdown::Write).ok();
    }

    fn stats(&self) -> TransportStats {
        self.tally.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::tests::samples;
    use spot_trace::SessionCounters;
    use std::net::TcpListener;
    use std::sync::MutexGuard;

    // The typed counters' process totals are process-wide, so the
    // tests of this module that move frames take turns.
    static FRAMES: Mutex<()> = Mutex::new(());

    fn frames_lock() -> MutexGuard<'static, ()> {
        FRAMES.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn sample(seq: u32) -> WireMessage {
        WireMessage::PackedCt {
            seq,
            blob: vec![seq as u8; 64],
        }
    }

    fn tcp_pair() -> (TcpTransport, TcpTransport) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpTransport::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        (client, TcpTransport::from_stream(stream).unwrap())
    }

    /// The four frame counts of each of the three views a frame is
    /// seen in — the endpoints' stats, the session sink, and the
    /// process totals counted while tracing is on — as (tx bytes, tx
    /// frames, rx bytes, rx frames).
    fn three_views(
        sender: &dyn Transport,
        receiver: &dyn Transport,
        sink: &SessionCounters,
    ) -> [[u64; 4]; 3] {
        let (sent, received) = (sender.stats().sent, receiver.stats().received);
        let frame_counters = [
            Counter::TxBytes,
            Counter::TxFrames,
            Counter::RxBytes,
            Counter::RxFrames,
        ];
        let (session, process) = (sink.snapshot(), spot_trace::counters());
        [
            [sent.bytes, sent.messages, received.bytes, received.messages],
            frame_counters.map(|c| session.get(c)),
            frame_counters.map(|c| process.get(c)),
        ]
    }

    fn every_view_counts_the_moved_bytes(client: &dyn Transport, server: &dyn Transport) {
        let sink = SessionCounters::new(1);
        let outer = spot_trace::set_session_counters(Some(Arc::clone(&sink)));
        spot_trace::enable();
        for (i, msg) in samples().into_iter().enumerate() {
            // Alternate directions, so each endpoint both sends and
            // receives.
            let (from, to) = if i % 2 == 0 {
                (client, server)
            } else {
                (server, client)
            };
            let before = three_views(from, to, &sink);
            from.send(&msg).unwrap();
            assert_eq!(to.recv().unwrap(), msg);
            let bytes = msg.encode_frame().len() as u64;
            for (view, (after, before)) in
                three_views(from, to, &sink).iter().zip(before).enumerate()
            {
                let delta: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
                assert_eq!(delta, [bytes, 1, bytes, 1], "view {view} of {msg:?}");
            }
        }
        spot_trace::disable();
        spot_trace::set_session_counters(outer);
        // Nothing but those frames was ever counted on either end.
        let (c, s) = (client.stats(), server.stats());
        assert_eq!((c.sent, c.received), (s.received, s.sent));
        assert_eq!(c.sent.messages + s.sent.messages, samples().len() as u64);
        client.close_tx();
        assert_eq!(server.recv(), Err(ProtoError::Closed));
    }

    #[test]
    fn a_frame_is_counted_once_in_every_view_on_both_transports() {
        let _turn = frames_lock();
        let (client, server) = MemTransport::pair();
        every_view_counts_the_moved_bytes(&client, &server);
        let (client, server) = tcp_pair();
        every_view_counts_the_moved_bytes(&client, &server);
    }

    #[test]
    fn mem_pair_roundtrip_and_accounting() {
        let _turn = frames_lock();
        let (client, server) = MemTransport::pair();
        let msg = sample(1);
        client.send(&msg).unwrap();
        assert_eq!(server.recv().unwrap(), msg);
        let frame_bytes = msg.frame_len() as u64;
        assert_eq!(client.stats().sent.bytes, frame_bytes);
        assert_eq!(client.stats().sent.messages, 1);
        assert_eq!(server.stats().received.bytes, frame_bytes);
        client.close_tx();
        assert_eq!(server.recv(), Err(ProtoError::Closed));
    }

    #[test]
    fn mem_bounded_uplink_blocks_sender() {
        let _turn = frames_lock();
        let (client, server) = MemTransport::pair_with_capacity(Some(1), None);
        client.send(&sample(0)).unwrap();
        let t = std::thread::spawn(move || {
            client.send(&sample(1)).unwrap(); // blocks until server drains
            client.stats().send_blocked
        });
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(server.recv().unwrap(), sample(0));
        let blocked = t.join().unwrap();
        assert!(blocked >= Duration::from_millis(10), "blocked {blocked:?}");
        assert_eq!(server.recv().unwrap(), sample(1));
    }

    #[test]
    fn mem_recv_drains_before_closed() {
        let _turn = frames_lock();
        let (client, server) = MemTransport::pair();
        client.send(&sample(0)).unwrap();
        client.send(&sample(1)).unwrap();
        client.close_tx();
        assert_eq!(server.recv().unwrap(), sample(0));
        assert_eq!(server.recv().unwrap(), sample(1));
        assert_eq!(server.recv(), Err(ProtoError::Closed));
        // peer direction still works
        server.send(&sample(9)).unwrap();
    }

    #[test]
    fn mem_recv_refuses_trailing_bytes_and_counts_nothing() {
        let (client, server) = MemTransport::pair();
        let mut frame = sample(2).encode_frame();
        frame.push(0);
        client.tx.send(frame).unwrap();
        assert_eq!(
            server.recv(),
            Err(ProtoError::Malformed("trailing bytes in frame".into()))
        );
        assert_eq!(server.stats(), TransportStats::default());
    }
}
