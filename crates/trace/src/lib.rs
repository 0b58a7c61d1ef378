//! # spot-trace — unified tracing & metrics for the SPOT pipeline
//!
//! One instrumentation substrate for the whole workspace, replacing the
//! ad-hoc telemetry that used to live in four places (`OpCounts`
//! callbacks, `TrafficStats`, the `StreamEvent` Gantt buffers, and the
//! stall tables): lightweight **spans** and **instants** with monotonic
//! timestamps and explicit span/parent/thread ids, typed **counters**
//! (HE ops, pool hits, wire bytes) and **gauges** (queue depth), and
//! two exporters — a [Chrome-trace-format] JSON loadable in
//! `chrome://tracing` / [Perfetto], and a plain-text summary.
//!
//! ## Cost model
//!
//! Tracing is **off by default** and the disabled path is a single
//! relaxed atomic load plus a branch — a few nanoseconds, no allocation,
//! no `Instant::now()` — so instrumentation sites can stay compiled into
//! release builds (verified by the `trace_overhead` bench in
//! `spot-bench`). When enabled, events are recorded into thread-local
//! buffers that flush into a global sink when full and when the thread
//! exits; the global lock is taken only at flush, never per event.
//!
//! ## Collection contract
//!
//! [`take_events`] flushes the *calling* thread and drains the sink.
//! Worker threads flush automatically on exit, so the intended pattern
//! is: enable, run (scoped worker threads join before the scope ends),
//! then collect on the coordinating thread. Threads that are still
//! alive and have not filled their buffer retain their tail until they
//! exit or their owner calls [`flush_thread`].
//!
//! [Chrome-trace-format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//! [Perfetto]: https://ui.perfetto.dev

#![warn(missing_docs)]

pub mod chrome;
pub mod clocksync;
pub mod correlate;
pub mod json;
pub mod log;
pub mod metrics;
pub mod summary;

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------
// Global switch and clock
// ---------------------------------------------------------------------

// Both recording switches in one word, so [`count`] asks "is tracing or
// the metrics registry on" with one relaxed load.
static SWITCHES: AtomicU8 = AtomicU8::new(0);
const TRACING: u8 = 1;
pub(crate) const REGISTRY: u8 = 2;

#[inline(always)]
pub(crate) fn switch_on(bit: u8) -> bool {
    SWITCHES.load(Ordering::Relaxed) & bit != 0
}

pub(crate) fn set_switch(bit: u8, on: bool) {
    if on {
        SWITCHES.fetch_or(bit, Ordering::SeqCst);
    } else {
        SWITCHES.fetch_and(!bit, Ordering::SeqCst);
    }
}

/// Whether tracing is currently on. This is the disabled-path hot
/// check: one relaxed load.
#[inline(always)]
pub fn enabled() -> bool {
    switch_on(TRACING)
}

/// Turns tracing on (idempotent). The first call fixes the trace
/// origin; all timestamps are nanoseconds since that instant.
pub fn enable() {
    origin();
    set_switch(TRACING, true);
}

/// Turns tracing off. Already-buffered events are kept until drained.
pub fn disable() {
    set_switch(TRACING, false);
}

fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

#[inline]
fn now_ns() -> u64 {
    origin().elapsed().as_nanos() as u64
}

/// Nanoseconds since the trace origin, on the same clock every event
/// timestamp uses. Public so protocol code can stamp wire messages
/// (clock-sync probes) with values directly comparable to span times.
/// The first call fixes the origin if [`enable`] has not run yet.
#[inline]
pub fn trace_now_ns() -> u64 {
    now_ns()
}

// ---------------------------------------------------------------------
// Wire trace context
// ---------------------------------------------------------------------

/// Separate switch for *wire-visible* trace context (trace ids in Setup
/// frames, clock-sync probes). Kept independent of [`enabled`] so that
/// merely buffering events in-process (unit tests, the overhead bench)
/// never changes the byte stream a transport emits; binaries that
/// export traces opt in via [`enable_wire_context`].
static WIRE_CONTEXT: AtomicBool = AtomicBool::new(false);

static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

/// Turns on wire-visible trace context (idempotent). Implies [`enable`].
pub fn enable_wire_context() {
    enable();
    WIRE_CONTEXT.store(true, Ordering::SeqCst);
}

/// Turns off wire-visible trace context.
pub fn disable_wire_context() {
    WIRE_CONTEXT.store(false, Ordering::SeqCst);
}

/// Whether wire-visible trace context is on.
#[inline]
pub fn wire_context_enabled() -> bool {
    WIRE_CONTEXT.load(Ordering::Relaxed)
}

/// Allocates a wire trace id: 0 while wire context is off (the encoder
/// emits the legacy frame layout for 0), otherwise a process-unique
/// nonzero value — the process id in the high 32 bits, a monotonic
/// counter in the low 32. No rng involved, so allocating ids never
/// perturbs the deterministic protocol transcripts.
pub fn next_wire_trace_id() -> u64 {
    if !wire_context_enabled() {
        return 0;
    }
    let seq = NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed) & 0xFFFF_FFFF;
    ((std::process::id() as u64) << 32) | seq
}

// ---------------------------------------------------------------------
// Event model
// ---------------------------------------------------------------------

/// Event category — the subsystem that emitted it (one Chrome-trace
/// `cat` per variant, also used to group the text summary).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cat {
    /// Client-side protocol work (packing, encryption, share assembly).
    Client,
    /// Server-side protocol work (convolution, masking).
    Server,
    /// Streaming runtime (queue stages, worker idle/busy).
    Stream,
    /// Wire transports (frame send/recv).
    Net,
    /// HE primitive layer.
    He,
    /// Session / layer state machines.
    Session,
    /// Application drivers and binaries.
    App,
}

impl Cat {
    /// Stable lowercase name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Cat::Client => "client",
            Cat::Server => "server",
            Cat::Stream => "stream",
            Cat::Net => "net",
            Cat::He => "he",
            Cat::Session => "session",
            Cat::App => "app",
        }
    }

    /// Inverse of [`Cat::name`], for re-importing exported traces.
    pub fn from_name(s: &str) -> Option<Cat> {
        Some(match s {
            "client" => Cat::Client,
            "server" => Cat::Server,
            "stream" => Cat::Stream,
            "net" => Cat::Net,
            "he" => Cat::He,
            "session" => Cat::Session,
            "app" => Cat::App,
            _ => return None,
        })
    }
}

/// An event name: `'static` on hot paths, owned for per-item labels.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Name {
    /// A static label (no allocation).
    Static(&'static str),
    /// A dynamically built label (allocated only while tracing is on).
    Owned(String),
}

impl Name {
    /// The label text.
    pub fn as_str(&self) -> &str {
        match self {
            Name::Static(s) => s,
            Name::Owned(s) => s,
        }
    }
}

/// What kind of event this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// A timed span; `ts_ns` is the start, `dur_ns` the length.
    Span {
        /// Span duration in nanoseconds.
        dur_ns: u64,
    },
    /// A zero-duration marker.
    Instant,
    /// A sampled gauge value (e.g. queue depth).
    Gauge {
        /// The sampled value.
        value: u64,
    },
}

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Label.
    pub name: Name,
    /// Emitting subsystem.
    pub cat: Cat,
    /// Nanoseconds since the trace origin.
    pub ts_ns: u64,
    /// Recording thread (dense ids assigned in first-use order).
    pub tid: u32,
    /// Span id (0 for instants and gauges).
    pub id: u32,
    /// Enclosing span id on the same thread at entry (0 = root).
    pub parent: u32,
    /// Optional numeric payload (e.g. `("bytes", 12_345)`).
    pub arg: Option<(&'static str, u64)>,
    /// Second payload slot (e.g. a `("flow", tag)` causal tag alongside
    /// the byte count on a wire span).
    pub arg2: Option<(&'static str, u64)>,
    /// Event kind.
    pub phase: Phase,
}

impl Event {
    /// Span end in nanoseconds (== `ts_ns` for non-spans).
    pub fn end_ns(&self) -> u64 {
        match self.phase {
            Phase::Span { dur_ns } => self.ts_ns + dur_ns,
            _ => self.ts_ns,
        }
    }
}

// ---------------------------------------------------------------------
// Thread-local buffers and the global sink
// ---------------------------------------------------------------------

const FLUSH_AT: usize = 4096;

static SINK: Mutex<Vec<Event>> = Mutex::new(Vec::new());
static THREAD_NAMES: Mutex<Vec<(u32, String)>> = Mutex::new(Vec::new());
static NEXT_TID: AtomicU32 = AtomicU32::new(1);
static NEXT_SPAN_ID: AtomicU32 = AtomicU32::new(1);

struct ThreadBuf {
    tid: u32,
    buf: Vec<Event>,
    stack: Vec<u32>,
}

impl ThreadBuf {
    fn new() -> Self {
        let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        let name = std::thread::current()
            .name()
            .map(str::to_string)
            .unwrap_or_else(|| format!("thread-{tid}"));
        if let Ok(mut names) = THREAD_NAMES.lock() {
            names.push((tid, name));
        }
        Self {
            tid,
            buf: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn push(&mut self, ev: Event) {
        self.buf.push(ev);
        if self.buf.len() >= FLUSH_AT {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        if let Ok(mut sink) = SINK.lock() {
            sink.append(&mut self.buf);
        } else {
            self.buf.clear();
        }
    }
}

impl Drop for ThreadBuf {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static TLS: RefCell<ThreadBuf> = RefCell::new(ThreadBuf::new());
}

fn with_tls<R>(f: impl FnOnce(&mut ThreadBuf) -> R) -> Option<R> {
    TLS.try_with(|t| f(&mut t.borrow_mut())).ok()
}

/// Overrides the current thread's display name in exports (worker
/// lanes call this with e.g. `server-0`). No-op while disabled.
pub fn set_thread_label(label: impl Into<String>) {
    if !enabled() {
        return;
    }
    let label = label.into();
    with_tls(|t| {
        if let Ok(mut names) = THREAD_NAMES.lock() {
            match names.iter_mut().find(|(tid, _)| *tid == t.tid) {
                Some(entry) => entry.1 = label,
                None => names.push((t.tid, label)),
            }
        }
    });
}

/// Flushes the calling thread's buffered events into the global sink.
pub fn flush_thread() {
    with_tls(|t| t.flush());
}

/// Flushes the calling thread, then drains every flushed event from the
/// global sink, sorted by start timestamp. Threads still alive keep
/// their unflushed tail (see the module docs for the collection
/// contract).
pub fn take_events() -> Vec<Event> {
    flush_thread();
    let mut events = SINK
        .lock()
        .map(|mut sink| std::mem::take(&mut *sink))
        .unwrap_or_default();
    events.sort_by_key(|e| (e.ts_ns, e.id));
    events
}

/// Registered `(tid, name)` pairs, for exporters.
pub fn thread_names() -> Vec<(u32, String)> {
    THREAD_NAMES.lock().map(|n| n.clone()).unwrap_or_default()
}

/// Clears buffered events on the calling thread and in the sink, and
/// zeroes every counter. Test/run-boundary helper; other threads'
/// unflushed buffers are untouched.
pub fn reset() {
    with_tls(|t| t.buf.clear());
    if let Ok(mut sink) = SINK.lock() {
        sink.clear();
    }
    for c in &COUNTERS {
        c.store(0, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------
// Spans and instants
// ---------------------------------------------------------------------

/// RAII span guard: records one [`Phase::Span`] event on drop. Obtain
/// via [`span`] / [`span_owned`]; a guard created while tracing is
/// disabled is inert (zero-cost drop).
#[must_use = "a span records on drop; binding to _ drops it immediately"]
pub struct Span {
    // None = tracing was disabled at entry; fully inert.
    live: Option<SpanLive>,
}

struct SpanLive {
    name: Name,
    cat: Cat,
    start_ns: u64,
    id: u32,
    parent: u32,
    arg: Option<(&'static str, u64)>,
    arg2: Option<(&'static str, u64)>,
}

fn enter(cat: Cat, name: Name) -> Span {
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = with_tls(|t| {
        let parent = t.stack.last().copied().unwrap_or(0);
        t.stack.push(id);
        parent
    })
    .unwrap_or(0);
    Span {
        live: Some(SpanLive {
            name,
            cat,
            start_ns: now_ns(),
            id,
            parent,
            arg: None,
            arg2: None,
        }),
    }
}

/// Opens a span with a static label. Disabled path: one atomic load.
#[inline]
pub fn span(cat: Cat, name: &'static str) -> Span {
    if !enabled() {
        return Span { live: None };
    }
    enter(cat, Name::Static(name))
}

/// Opens a span whose label is built by `f` — the closure runs (and
/// allocates) only while tracing is enabled.
#[inline]
pub fn span_owned<F: FnOnce() -> String>(cat: Cat, f: F) -> Span {
    if !enabled() {
        return Span { live: None };
    }
    enter(cat, Name::Owned(f()))
}

impl Span {
    /// Attaches a numeric payload exported under `args`. Two slots are
    /// available; the first free one is filled (further calls replace
    /// the second slot).
    pub fn arg(mut self, key: &'static str, value: u64) -> Span {
        if let Some(live) = &mut self.live {
            if live.arg.is_none() {
                live.arg = Some((key, value));
            } else {
                live.arg2 = Some((key, value));
            }
        }
        self
    }

    /// This span's id (0 when tracing was disabled at entry).
    pub fn id(&self) -> u32 {
        self.live.as_ref().map_or(0, |l| l.id)
    }

    /// Discards the span without recording it (the nesting stack is
    /// still unwound). For conditionally-interesting spans, e.g. a
    /// "blocked" window that turned out to be zero-length.
    pub fn cancel(mut self) {
        let Some(live) = self.live.take() else { return };
        with_tls(|t| {
            if let Some(pos) = t.stack.iter().rposition(|&id| id == live.id) {
                t.stack.truncate(pos);
            }
        });
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else { return };
        let dur_ns = now_ns().saturating_sub(live.start_ns);
        with_tls(|t| {
            // Guards are scoped, so the top of the stack is this span;
            // tolerate misuse by searching downward.
            if let Some(pos) = t.stack.iter().rposition(|&id| id == live.id) {
                t.stack.truncate(pos);
            }
            t.push(Event {
                name: live.name,
                cat: live.cat,
                ts_ns: live.start_ns,
                tid: t.tid,
                id: live.id,
                parent: live.parent,
                arg: live.arg,
                arg2: live.arg2,
                phase: Phase::Span { dur_ns },
            });
        });
    }
}

fn record_leaf(cat: Cat, name: Name, arg: Option<(&'static str, u64)>, phase: Phase) {
    let ts_ns = now_ns();
    with_tls(|t| {
        // Gauges are process-scoped samples, not span-local work: they
        // carry no parent link, so a sample taken inside a span that is
        // later cancelled (e.g. a not-actually-blocked wait span) can
        // never leave a dangling reference.
        let parent = if matches!(phase, Phase::Gauge { .. }) {
            0
        } else {
            t.stack.last().copied().unwrap_or(0)
        };
        t.push(Event {
            name,
            cat,
            ts_ns,
            tid: t.tid,
            id: 0,
            parent,
            arg,
            arg2: None,
            phase,
        });
    });
}

/// Records a zero-duration marker. Disabled path: one atomic load.
#[inline]
pub fn instant(cat: Cat, name: &'static str) {
    if !enabled() {
        return;
    }
    record_leaf(cat, Name::Static(name), None, Phase::Instant);
}

/// Samples a gauge (e.g. queue depth) into the trace timeline.
/// Disabled path: one atomic load.
#[inline]
pub fn gauge(cat: Cat, name: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    record_leaf(cat, Name::Static(name), None, Phase::Gauge { value });
}

// ---------------------------------------------------------------------
// Typed counters
// ---------------------------------------------------------------------

/// The process-wide typed counters. Monotonic relaxed atomics, counted
/// while tracing or the [`metrics`] registry is on; snapshot with
/// [`counters`] and attribute per layer/session via
/// [`CounterSnapshot::delta`]. A `/metrics` scrape renders the totals
/// as `spot_server_ops{op="<name>"}` ([`metrics::scrape`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Counter {
    /// Polynomial forward NTT conversions (one per `Poly::to_ntt`).
    NttFwd,
    /// Polynomial inverse NTT conversions (one per `Poly::to_coeff`).
    NttInv,
    /// Slot rotations (Galois automorphism + key switch).
    Rotate,
    /// RNS key-switch invocations.
    KeySwitch,
    /// Key-switch digit decompositions (one per hoisted ciphertext;
    /// every rotation taken from the same hoist shares it).
    KsDecompose,
    /// Ciphertext modulus switches.
    ModSwitch,
    /// Encryptions.
    Encrypt,
    /// Decryptions.
    Decrypt,
    /// Ciphertext additions (ct+ct and ct±plain).
    AddOps,
    /// Ciphertext–plaintext multiplications.
    MultPlain,
    /// Residue-buffer pool takes served from the free list.
    PoolHit,
    /// Residue-buffer pool takes that hit the allocator.
    PoolMiss,
    /// Buffers returned to the pool free list.
    PoolRecycled,
    /// Buffers dropped because the pool was at capacity.
    PoolDropped,
    /// Items pushed into streaming queues.
    QueuePushed,
    /// Items popped from streaming queues.
    QueuePopped,
    /// Nanoseconds producers spent blocked on queue backpressure.
    QueueBlockedNs,
    /// Framed wire bytes sent by this process.
    TxBytes,
    /// Wire frames sent by this process.
    TxFrames,
    /// Framed wire bytes received by this process.
    RxBytes,
    /// Wire frames received by this process.
    RxFrames,
    /// Nanoseconds senders spent blocked in `Transport::send`.
    TxBlockedNs,
    /// NTT-domain kernel plaintexts actually built (cache misses).
    KernelCacheBuild,
    /// Kernel plaintext requests served from the cache.
    KernelCacheHit,
}

/// Number of [`Counter`] variants.
pub const COUNTER_COUNT: usize = 24;

impl Counter {
    /// Every counter, in declaration order.
    pub const ALL: [Counter; COUNTER_COUNT] = [
        Counter::NttFwd,
        Counter::NttInv,
        Counter::Rotate,
        Counter::KeySwitch,
        Counter::KsDecompose,
        Counter::ModSwitch,
        Counter::Encrypt,
        Counter::Decrypt,
        Counter::AddOps,
        Counter::MultPlain,
        Counter::PoolHit,
        Counter::PoolMiss,
        Counter::PoolRecycled,
        Counter::PoolDropped,
        Counter::QueuePushed,
        Counter::QueuePopped,
        Counter::QueueBlockedNs,
        Counter::TxBytes,
        Counter::TxFrames,
        Counter::RxBytes,
        Counter::RxFrames,
        Counter::TxBlockedNs,
        Counter::KernelCacheBuild,
        Counter::KernelCacheHit,
    ];

    /// Stable snake_case name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Counter::NttFwd => "ntt_fwd",
            Counter::NttInv => "ntt_inv",
            Counter::Rotate => "rotate",
            Counter::KeySwitch => "key_switch",
            Counter::KsDecompose => "ks_decompose",
            Counter::ModSwitch => "mod_switch",
            Counter::Encrypt => "encrypt",
            Counter::Decrypt => "decrypt",
            Counter::AddOps => "add_ops",
            Counter::MultPlain => "mult_plain",
            Counter::PoolHit => "pool_hit",
            Counter::PoolMiss => "pool_miss",
            Counter::PoolRecycled => "pool_recycled",
            Counter::PoolDropped => "pool_dropped",
            Counter::QueuePushed => "queue_pushed",
            Counter::QueuePopped => "queue_popped",
            Counter::QueueBlockedNs => "queue_blocked_ns",
            Counter::TxBytes => "tx_bytes",
            Counter::TxFrames => "tx_frames",
            Counter::RxBytes => "rx_bytes",
            Counter::RxFrames => "rx_frames",
            Counter::TxBlockedNs => "tx_blocked_ns",
            Counter::KernelCacheBuild => "kernel_cache_build",
            Counter::KernelCacheHit => "kernel_cache_hit",
        }
    }

    /// Whether the counter accumulates nanoseconds (rendered as time).
    pub fn is_nanos(self) -> bool {
        matches!(self, Counter::QueueBlockedNs | Counter::TxBlockedNs)
    }
}

static COUNTERS: [AtomicU64; COUNTER_COUNT] = [const { AtomicU64::new(0) }; COUNTER_COUNT];

/// Sticky flag: flips to `true` the first time any thread installs a
/// [`SessionCounters`] sink, so processes that never serve sessions pay
/// only one extra relaxed load per `count` call and never touch TLS.
static SESSION_TRACKING: AtomicBool = AtomicBool::new(false);

/// A per-session counter sink. A serving thread installs one with
/// [`set_session_counters`]; every [`count`] call on that thread (and on
/// worker threads the executor propagates it to) is mirrored into it,
/// independently of the global [`enabled`] switch — so a server can
/// attribute HE ops, wire bytes and queue stalls to individual sessions
/// without turning on event buffering for the whole process.
#[derive(Debug)]
pub struct SessionCounters {
    id: u64,
    vals: [AtomicU64; COUNTER_COUNT],
}

impl SessionCounters {
    /// A fresh all-zero sink tagged with a session id.
    pub fn new(id: u64) -> Arc<Self> {
        Arc::new(SessionCounters {
            id,
            vals: [const { AtomicU64::new(0) }; COUNTER_COUNT],
        })
    }

    /// The session id this sink is tagged with.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// A point-in-time copy of this session's counters.
    pub fn snapshot(&self) -> CounterSnapshot {
        let mut snap = CounterSnapshot::default();
        for (i, c) in self.vals.iter().enumerate() {
            snap.vals[i] = c.load(Ordering::Relaxed);
        }
        snap
    }
}

thread_local! {
    static SESSION_SINK: RefCell<Option<Arc<SessionCounters>>> = const { RefCell::new(None) };
}

/// Installs (or clears, with `None`) the calling thread's per-session
/// counter sink and returns the previous one, so nested scopes can
/// restore it. Pass the same `Arc` to every thread working on behalf of
/// the session; relaxed additions commute, so the snapshot is exact.
pub fn set_session_counters(sink: Option<Arc<SessionCounters>>) -> Option<Arc<SessionCounters>> {
    if sink.is_some() {
        SESSION_TRACKING.store(true, Ordering::Relaxed);
    }
    SESSION_SINK.with(|s| std::mem::replace(&mut *s.borrow_mut(), sink))
}

/// The calling thread's current per-session sink, if any. Executors
/// read this before spawning workers and re-install it on each.
pub fn session_counters() -> Option<Arc<SessionCounters>> {
    if !SESSION_TRACKING.load(Ordering::Relaxed) {
        return None;
    }
    SESSION_SINK.with(|s| s.borrow().clone())
}

#[cold]
fn count_session(c: Counter, n: u64) {
    SESSION_SINK.with(|s| {
        if let Some(sink) = s.borrow().as_ref() {
            sink.vals[c as usize].fetch_add(n, Ordering::Relaxed);
        }
    });
}

/// Adds `n` to a counter: to the process total while tracing or the
/// metrics registry is on, and to the calling thread's session sink.
/// Disabled path: two relaxed atomic loads and branches (the switch
/// word and the sticky session-tracking flag).
#[inline(always)]
pub fn count(c: Counter, n: u64) {
    if SWITCHES.load(Ordering::Relaxed) != 0 {
        COUNTERS[c as usize].fetch_add(n, Ordering::Relaxed);
    }
    if SESSION_TRACKING.load(Ordering::Relaxed) {
        count_session(c, n);
    }
}

/// A point-in-time copy of every counter. Per-layer attribution is the
/// [`CounterSnapshot::delta`] between two snapshots — exact under
/// parallel workers because relaxed additions commute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CounterSnapshot {
    vals: [u64; COUNTER_COUNT],
}

impl CounterSnapshot {
    /// The snapshotted value of one counter.
    pub fn get(&self, c: Counter) -> u64 {
        self.vals[c as usize]
    }

    /// Overwrites one counter value (summary construction and tests).
    pub fn set(&mut self, c: Counter, v: u64) {
        self.vals[c as usize] = v;
    }

    /// Element-wise `self - earlier` (saturating, so snapshots taken
    /// across a [`reset`] degrade to zero instead of wrapping).
    pub fn delta(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        let mut out = CounterSnapshot::default();
        for i in 0..COUNTER_COUNT {
            out.vals[i] = self.vals[i].saturating_sub(earlier.vals[i]);
        }
        out
    }

    /// True when every counter is zero.
    pub fn is_zero(&self) -> bool {
        self.vals.iter().all(|&v| v == 0)
    }
}

/// Snapshots every counter (relaxed loads).
pub fn counters() -> CounterSnapshot {
    let mut snap = CounterSnapshot::default();
    for (i, c) in COUNTERS.iter().enumerate() {
        snap.vals[i] = c.load(Ordering::Relaxed);
    }
    snap
}

#[cfg(test)]
mod tests {
    use super::*;

    // The trace substrate is process-global, so every test that toggles
    // it runs under this lock (the workspace's integration tests live in
    // separate processes and are unaffected).
    pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

    pub(crate) fn guard() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = guard();
        disable();
        metrics::disable();
        reset();
        {
            let _s = span(Cat::He, "noop");
            instant(Cat::He, "marker");
            gauge(Cat::Stream, "depth", 3);
            count(Counter::Rotate, 5);
        }
        assert!(take_events().is_empty());
        assert!(counters().is_zero());
    }

    #[test]
    fn spans_nest_with_parent_ids() {
        let _g = guard();
        reset();
        enable();
        {
            let outer = span(Cat::Session, "outer");
            let outer_id = outer.id();
            {
                let inner = span(Cat::He, "inner").arg("bytes", 7);
                assert_ne!(inner.id(), 0);
            }
            instant(Cat::He, "mark");
            drop(outer);
            assert_ne!(outer_id, 0);
        }
        disable();
        let events = take_events();
        assert_eq!(events.len(), 3);
        let outer = events
            .iter()
            .find(|e| e.name.as_str() == "outer")
            .expect("outer span");
        let inner = events
            .iter()
            .find(|e| e.name.as_str() == "inner")
            .expect("inner span");
        let mark = events
            .iter()
            .find(|e| e.name.as_str() == "mark")
            .expect("instant");
        assert_eq!(inner.parent, outer.id);
        assert_eq!(mark.parent, outer.id);
        assert_eq!(inner.arg, Some(("bytes", 7)));
        assert!(inner.ts_ns >= outer.ts_ns);
        assert!(inner.end_ns() <= outer.end_ns());
        assert!(matches!(outer.phase, Phase::Span { .. }));
        reset();
    }

    #[test]
    fn counter_snapshot_delta() {
        let _g = guard();
        reset();
        enable();
        let before = counters();
        count(Counter::Rotate, 3);
        count(Counter::TxBytes, 1000);
        let mid = counters();
        count(Counter::Rotate, 2);
        let after = counters();
        disable();
        let d1 = mid.delta(&before);
        assert_eq!(d1.get(Counter::Rotate), 3);
        assert_eq!(d1.get(Counter::TxBytes), 1000);
        assert_eq!(d1.get(Counter::NttFwd), 0);
        let d2 = after.delta(&mid);
        assert_eq!(d2.get(Counter::Rotate), 2);
        assert_eq!(d2.get(Counter::TxBytes), 0);
        // saturating: delta "backwards" is zero, not a wrap
        assert_eq!(before.delta(&after).get(Counter::Rotate), 0);
        reset();
    }

    #[test]
    fn session_counters_mirror_without_global_enable() {
        let _g = guard();
        disable();
        reset();
        let sink = SessionCounters::new(7);
        assert_eq!(sink.id(), 7);
        let prev = set_session_counters(Some(Arc::clone(&sink)));
        count(Counter::Rotate, 4);
        count(Counter::TxBytes, 100);
        // Mirrored into the session sink even though tracing is off...
        assert_eq!(sink.snapshot().get(Counter::Rotate), 4);
        assert_eq!(sink.snapshot().get(Counter::TxBytes), 100);
        // ...while the process-global counters stay untouched.
        assert!(counters().is_zero());
        set_session_counters(prev);
        count(Counter::Rotate, 1);
        assert_eq!(sink.snapshot().get(Counter::Rotate), 4, "sink detached");
        reset();
    }

    #[test]
    fn session_counters_propagate_across_threads() {
        let _g = guard();
        disable();
        reset();
        let sink = SessionCounters::new(1);
        let prev = set_session_counters(Some(Arc::clone(&sink)));
        let inherited = session_counters().expect("sink installed");
        std::thread::spawn(move || {
            set_session_counters(Some(inherited));
            count(Counter::KeySwitch, 2);
        })
        .join()
        .unwrap();
        count(Counter::KeySwitch, 1);
        assert_eq!(sink.snapshot().get(Counter::KeySwitch), 3);
        set_session_counters(prev);
        reset();
    }

    #[test]
    fn span_args_fill_both_slots_in_order() {
        let _g = guard();
        reset();
        enable();
        {
            let _s = span(Cat::Net, "send")
                .arg("bytes", 10)
                .arg("flow", 99)
                .arg("extra", 7);
        }
        disable();
        let events = take_events();
        let send = events
            .iter()
            .find(|e| e.name.as_str() == "send")
            .expect("send span");
        assert_eq!(send.arg, Some(("bytes", 10)));
        // Third call overwrites the second slot, never the first.
        assert_eq!(send.arg2, Some(("extra", 7)));
        reset();
    }

    #[test]
    fn wire_trace_ids_gate_on_wire_context() {
        let _g = guard();
        disable_wire_context();
        assert_eq!(next_wire_trace_id(), 0, "zero while wire context off");
        enable_wire_context();
        assert!(enabled(), "wire context implies tracing");
        let a = next_wire_trace_id();
        let b = next_wire_trace_id();
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b, "ids are unique");
        assert_eq!(a >> 32, std::process::id() as u64, "pid in high bits");
        disable_wire_context();
        disable();
        assert_eq!(next_wire_trace_id(), 0);
    }

    #[test]
    fn cat_names_roundtrip() {
        for cat in [
            Cat::Client,
            Cat::Server,
            Cat::Stream,
            Cat::Net,
            Cat::He,
            Cat::Session,
            Cat::App,
        ] {
            assert_eq!(Cat::from_name(cat.name()), Some(cat));
        }
        assert_eq!(Cat::from_name("bogus"), None);
    }

    #[test]
    fn counter_names_cover_all_variants() {
        let mut seen = std::collections::HashSet::new();
        for c in Counter::ALL {
            assert!(seen.insert(c.name()), "duplicate name {}", c.name());
        }
        assert_eq!(seen.len(), COUNTER_COUNT);
    }

    #[test]
    fn cross_thread_events_carry_distinct_tids() {
        let _g = guard();
        reset();
        enable();
        let main_tid = with_tls(|t| t.tid).unwrap();
        std::thread::spawn(|| {
            set_thread_label("worker-lane");
            let _s = span(Cat::Stream, "worker-span");
        })
        .join()
        .unwrap();
        disable();
        let events = take_events();
        let worker = events
            .iter()
            .find(|e| e.name.as_str() == "worker-span")
            .expect("worker span flushed on thread exit");
        assert_ne!(worker.tid, main_tid);
        assert!(thread_names()
            .iter()
            .any(|(tid, name)| *tid == worker.tid && name == "worker-lane"));
        reset();
    }
}
