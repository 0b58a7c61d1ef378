//! Streaming execution runtime: overlap client encryption with server
//! convolution.
//!
//! The phased backend ([`crate::session::ExecBackend::Phased`]) runs
//! *encrypt everything → convolve everything* as two sequential phases,
//! so the pipelining that
//! SPOT's structure patching enables existed only in the analytic
//! simulator. This module makes it real: a **producer thread** (the
//! client) packs and encrypts ciphertexts and pushes them through a
//! [`BoundedQueue`] whose capacity is the tiny client's ciphertext
//! budget ([`DeviceProfile::ciphertext_capacity`]); **server workers**
//! (the PR 1 [`Executor`] pool, via [`Executor::run_workers`]) pull each
//! ciphertext the moment it arrives and convolve it; result shares flow
//! back on an unbounded return queue for overlapped assembly on the
//! caller's thread.
//!
//! Two drivers map the two output-dependency classes
//! ([`crate::inference::plan_conv`]):
//!
//! * [`run_stream`] — per-input dependencies (SPOT): every ciphertext is
//!   independently convolvable, so the server starts on ciphertext 0
//!   while the client is still encrypting ciphertext 1.
//! * [`run_stream_barrier`] — all-input dependencies (channel-wise,
//!   Cheetah): every server job reads the full input set, so workers sit
//!   idle until the last ciphertext lands — the "linear computation
//!   stall" the paper eliminates. Upload is still overlappable with
//!   nothing, and that idle time is what the stall accounting surfaces.
//!
//! ## Determinism
//!
//! All protocol randomness is drawn on the producer thread in exactly
//! the phased driver's order; the parallel phase is pure; results are
//! consumed in item order. Given the same rng seed, a streamed layer's
//! shares are bit-identical to the phased layer's — enforced by
//! `tests/streaming_determinism.rs` at 1 and 8 server threads.
//!
//! ## Stall accounting
//!
//! Every stage is timed against a common origin: client active/blocked
//! time, per-worker busy and idle (blocked on [`BoundedQueue::recv`]
//! while the stream is open) in thread-seconds.
//! [`StreamStats::stall_row`] converts a run into the
//! [`spot_pipeline::report::StallRow`] rendered by
//! [`spot_pipeline::report::stall_table`]. When `spot_trace` is
//! enabled, every stage additionally records spans (`enc #i`,
//! `conv #i`, `idle`, `out #i`) and queue counters/gauges into the
//! unified trace, which is what the `stream_timeline` binary and the
//! `--trace` flags export.

use crate::error::SpotError;
use crate::executor::Executor;
use crossbeam::thread;
use spot_he::pool;
use spot_pipeline::device::DeviceProfile;
use spot_pipeline::report::StallRow;
use spot_trace::{count, gauge, metrics, Cat, Counter};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

// Live-registry histograms for the streaming runtime, registered once
// per process: producer time blocked on channel backpressure (SPOT's
// headline stall number, readable off a running server) and per-item
// conv wall time across all worker threads.
fn stream_queue_blocked_hist() -> &'static metrics::Histogram {
    static H: OnceLock<std::sync::Arc<metrics::Histogram>> = OnceLock::new();
    H.get_or_init(|| metrics::global().histogram("spot_stream_queue_blocked_ns", &[]))
}

fn stream_conv_hist() -> &'static metrics::Histogram {
    static H: OnceLock<std::sync::Arc<metrics::Histogram>> = OnceLock::new();
    H.get_or_init(|| metrics::global().histogram("spot_stream_conv_ns", &[]))
}

// ---------------------------------------------------------------------
// Bounded MPMC queue
// ---------------------------------------------------------------------

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A blocking bounded MPMC queue with close semantics and blocked-time
/// measurement (the vendored `crossbeam` stand-in provides only scoped
/// threads, so the channel layer is built here).
///
/// [`BoundedQueue::send`] blocks while the queue is full — this is the
/// backpressure that keeps at most `capacity` ciphertexts in flight,
/// i.e. the tiny client's memory model. [`BoundedQueue::recv`] blocks
/// while the queue is empty and open, and returns `None` once it is
/// closed and drained. Both return the time they spent blocked so the
/// runtime can attribute stall to the right side.
pub struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    can_send: Condvar,
    can_recv: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items (clamped to ≥ 1).
    pub fn bounded(capacity: usize) -> Self {
        Self {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            can_send: Condvar::new(),
            can_recv: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// A queue with no capacity bound (used for the return channel:
    /// server workers must never block on the client).
    pub fn unbounded() -> Self {
        Self::bounded(usize::MAX)
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Sends an item, blocking while the queue is full; returns the
    /// time spent blocked. Sending on a closed queue or through a
    /// poisoned lock returns an error instead of panicking.
    pub fn send(&self, item: T) -> Result<Duration, SpotError> {
        let mut blocked = Duration::ZERO;
        let mut st = self
            .state
            .lock()
            .map_err(|_| SpotError::Poisoned("stream queue"))?;
        while st.items.len() >= self.capacity && !st.closed {
            let t0 = Instant::now();
            st = self
                .can_send
                .wait(st)
                .map_err(|_| SpotError::Poisoned("stream queue"))?;
            blocked += t0.elapsed();
        }
        if st.closed {
            return Err(SpotError::Disconnected("send on closed stream queue"));
        }
        st.items.push_back(item);
        let depth = st.items.len() as u64;
        drop(st);
        self.can_recv.notify_one();
        count(Counter::QueuePushed, 1);
        count(Counter::QueueBlockedNs, blocked.as_nanos() as u64);
        gauge(Cat::Stream, "queue_depth", depth);
        if metrics::enabled() {
            stream_queue_blocked_hist().observe(blocked.as_nanos() as u64);
        }
        Ok(blocked)
    }

    /// Receives an item, blocking while the queue is empty and open;
    /// returns `None` once closed and drained, plus the time spent
    /// blocked.
    pub fn recv(&self) -> Result<(Option<T>, Duration), SpotError> {
        let mut blocked = Duration::ZERO;
        let mut st = self
            .state
            .lock()
            .map_err(|_| SpotError::Poisoned("stream queue"))?;
        loop {
            if let Some(item) = st.items.pop_front() {
                let depth = st.items.len() as u64;
                drop(st);
                self.can_send.notify_one();
                count(Counter::QueuePopped, 1);
                gauge(Cat::Stream, "queue_depth", depth);
                return Ok((Some(item), blocked));
            }
            if st.closed {
                return Ok((None, blocked));
            }
            let t0 = Instant::now();
            st = self
                .can_recv
                .wait(st)
                .map_err(|_| SpotError::Poisoned("stream queue"))?;
            blocked += t0.elapsed();
        }
    }

    /// Closes the queue: senders get an error, receivers drain then get
    /// `None`. Idempotent; a poisoned lock is ignored (the panic that
    /// poisoned it is already propagating).
    pub fn close(&self) {
        if let Ok(mut st) = self.state.lock() {
            st.closed = true;
        }
        self.can_send.notify_all();
        self.can_recv.notify_all();
    }
}

// ---------------------------------------------------------------------
// Configuration and stats
// ---------------------------------------------------------------------

/// Streaming runtime configuration: the server worker pool and the
/// bounded-channel capacity (the client's ciphertext budget).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Server-side worker pool.
    pub executor: Executor,
    /// Maximum ciphertexts in flight client → server.
    pub channel_capacity: usize,
}

impl StreamConfig {
    /// A config with an explicit channel capacity (clamped to ≥ 1).
    pub fn new(executor: Executor, channel_capacity: usize) -> Self {
        Self {
            executor,
            channel_capacity: channel_capacity.max(1),
        }
    }

    /// A config whose channel capacity is the client device's
    /// ciphertext budget for the given serialized ciphertext size.
    pub fn for_client(executor: Executor, client: &DeviceProfile, ciphertext_bytes: usize) -> Self {
        Self::new(executor, client.ciphertext_capacity(ciphertext_bytes))
    }
}

/// Measured wall-clock accounting for one streamed execution.
///
/// `server_busy_s`/`server_idle_s` are thread-seconds summed over the
/// worker pool; the rest are wall-clock seconds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StreamStats {
    /// End-to-end wall time.
    pub wall_s: f64,
    /// Producer (client) active time: packing, encryption, mask
    /// generation.
    pub client_s: f64,
    /// Producer time blocked on channel backpressure.
    pub client_blocked_s: f64,
    /// Worker thread-seconds spent computing.
    pub server_busy_s: f64,
    /// Worker thread-seconds blocked waiting for ciphertexts while the
    /// stream was open — the measured "linear computation stall".
    pub server_idle_s: f64,
    /// Items streamed client → server.
    pub input_items: usize,
    /// Results returned server → client.
    pub output_items: usize,
    /// Bounded-channel capacity used.
    pub channel_capacity: usize,
    /// Server worker count.
    pub server_threads: usize,
}

impl StreamStats {
    /// Folds another layer's stats into this one (used when a network
    /// streams layer after layer). Timeline detail lives in the
    /// `spot_trace` event stream, not here.
    pub fn accumulate(&mut self, other: &StreamStats) {
        self.wall_s += other.wall_s;
        self.client_s += other.client_s;
        self.client_blocked_s += other.client_blocked_s;
        self.server_busy_s += other.server_busy_s;
        self.server_idle_s += other.server_idle_s;
        self.input_items += other.input_items;
        self.output_items += other.output_items;
        self.channel_capacity = self.channel_capacity.max(other.channel_capacity);
        self.server_threads = self.server_threads.max(other.server_threads);
    }

    /// Converts to the report row rendered by
    /// [`spot_pipeline::report::stall_table`].
    pub fn stall_row(&self, scheme: &str) -> StallRow {
        StallRow {
            scheme: scheme.to_string(),
            wall_s: self.wall_s,
            client_s: self.client_s,
            client_blocked_s: self.client_blocked_s,
            server_busy_s: self.server_busy_s,
            server_idle_s: self.server_idle_s,
            input_cts: self.input_items,
            output_cts: self.output_items,
            channel_capacity: self.channel_capacity,
            server_threads: self.server_threads,
        }
    }
}

// ---------------------------------------------------------------------
// Producer side
// ---------------------------------------------------------------------

/// Handle the producer closure pushes ciphertexts through. Items are
/// indexed in push order; [`Feeder::push`] blocks when the channel is
/// full (client out of ciphertext memory) and attributes the wait to
/// `client_blocked_s`.
pub struct Feeder<'q, T> {
    queue: &'q BoundedQueue<(usize, T)>,
    next_index: usize,
    blocked: Duration,
    // Open span covering production of item `next_index` (closed when
    // that item is pushed). Inert while tracing is disabled.
    enc_span: Option<spot_trace::Span>,
}

impl<'q, T> Feeder<'q, T> {
    fn new(queue: &'q BoundedQueue<(usize, T)>) -> Self {
        Self {
            queue,
            next_index: 0,
            blocked: Duration::ZERO,
            enc_span: Some(spot_trace::span_owned(Cat::Client, || "enc #0".into())),
        }
    }

    /// Pushes the next item (index assigned in push order), blocking on
    /// backpressure. Fails if the queue was closed or poisoned
    /// underneath the producer (e.g. the server side died).
    pub fn push(&mut self, item: T) -> Result<(), SpotError> {
        let i = self.next_index;
        // Close the span covering this item's production.
        self.enc_span.take();
        let blocked_span = spot_trace::span(Cat::Client, "blocked (channel full)");
        let waited = self.queue.send((i, item))?;
        if waited > Duration::ZERO {
            drop(blocked_span);
        } else {
            blocked_span.cancel();
        }
        self.blocked += waited;
        self.next_index += 1;
        self.enc_span = Some(spot_trace::span_owned(Cat::Client, || {
            format!("enc #{}", i + 1)
        }));
        Ok(())
    }

    /// Items pushed so far.
    pub fn pushed(&self) -> usize {
        self.next_index
    }
}

struct ProducerOutcome {
    blocked: Duration,
    pushed: usize,
    finished: Instant,
}

fn run_producer<T, P>(
    queue: &BoundedQueue<(usize, T)>,
    channel_capacity: usize,
    producer: P,
) -> Result<ProducerOutcome, SpotError>
where
    P: FnOnce(&mut Feeder<'_, T>) -> Result<(), SpotError>,
{
    spot_trace::set_thread_label("client");
    // Client memory model: a ciphertext is two residue polynomials, so a
    // budget of `channel_capacity` in-flight ciphertexts bounds the
    // producer's buffer pool at twice that — the debug assertion is the
    // satellite-task guarantee that pooling never retains more scratch
    // than the device could hold.
    let prev_cap = pool::capacity();
    pool::set_capacity(2 * channel_capacity);
    debug_assert!(pool::capacity() <= 2 * channel_capacity);
    let mut feeder = Feeder::new(queue);
    let result = producer(&mut feeder);
    // The span opened for a next item that will never be produced.
    if let Some(open) = feeder.enc_span.take() {
        open.cancel();
    }
    // Close and restore the pool even on failure, so workers drain and
    // exit instead of blocking forever.
    queue.close();
    let outcome = ProducerOutcome {
        blocked: feeder.blocked,
        pushed: feeder.next_index,
        finished: Instant::now(),
    };
    pool::set_capacity(prev_cap);
    spot_trace::flush_thread();
    result.map(|()| outcome)
}

// ---------------------------------------------------------------------
// Per-input streaming driver
// ---------------------------------------------------------------------

/// Streams independently-convolvable ciphertexts (SPOT's per-input
/// dependency class): the producer closure encrypts and pushes items;
/// each server worker pulls and applies `work` the moment an item
/// arrives; `consume` receives results **in item order** on the
/// caller's thread, overlapped with ongoing production and convolution.
///
/// Determinism contract: `producer` performs all rng draws in the
/// phased order on its single thread; `work` must be pure (no shared
/// mutable state, no randomness); `consume` runs sequentially in index
/// order — so the composition is bit-identical to the phased loop for
/// any thread count and channel capacity.
pub fn run_stream<T, R, P, W, C>(
    config: &StreamConfig,
    producer: P,
    work: W,
    mut consume: C,
) -> Result<StreamStats, SpotError>
where
    T: Send,
    R: Send,
    P: FnOnce(&mut Feeder<'_, T>) -> Result<(), SpotError> + Send,
    W: Fn(usize, T) -> R + Sync,
    C: FnMut(usize, R) -> Result<(), SpotError>,
{
    let t0 = Instant::now();
    let in_q: BoundedQueue<(usize, T)> = BoundedQueue::bounded(config.channel_capacity);
    let out_q: BoundedQueue<(usize, R)> = BoundedQueue::unbounded();
    let workers = config.executor.threads();

    let mut stats = StreamStats {
        channel_capacity: config.channel_capacity,
        server_threads: workers,
        ..StreamStats::default()
    };

    // Producer and server run on fresh scoped threads: hand them the
    // session counter sink so their wire/HE ops stay attributed.
    let session = spot_trace::session_counters();
    let scope_result = thread::scope(|s| {
        let in_q = &in_q;
        let out_q = &out_q;
        let work = &work;

        let producer_session = session.clone();
        let producer_handle = s.spawn(move |_| {
            if let Some(sink) = producer_session {
                spot_trace::set_session_counters(Some(sink));
            }
            run_producer(in_q, config.channel_capacity, producer)
        });

        let server_session = session.clone();
        let server_handle = s.spawn(move |_| {
            if let Some(sink) = server_session {
                spot_trace::set_session_counters(Some(sink));
            }
            let per_worker = config.executor.run_workers(workers, |w| {
                spot_trace::set_thread_label(format!("server-{w}"));
                let mut idle = Duration::ZERO;
                let mut busy = Duration::ZERO;
                loop {
                    let idle_span = spot_trace::span(Cat::Stream, "idle");
                    let (msg, waited) = in_q.recv()?;
                    if waited > Duration::ZERO {
                        drop(idle_span);
                    } else {
                        idle_span.cancel();
                    }
                    idle += waited;
                    let Some((i, item)) = msg else { break };
                    let conv_span = spot_trace::span_owned(Cat::Stream, || format!("conv #{i}"));
                    let job_start = Instant::now();
                    let r = work(i, item);
                    let took = job_start.elapsed();
                    busy += took;
                    drop(conv_span);
                    if metrics::enabled() {
                        stream_conv_hist().observe(took.as_nanos() as u64);
                    }
                    out_q.send((i, r))?;
                }
                spot_trace::flush_thread();
                Ok::<_, SpotError>((idle, busy))
            });
            // All workers have exited: no more results will appear.
            out_q.close();
            per_worker
        });

        // Overlapped assembly on the caller's thread, in item order. On a
        // consume failure, stop assembling but keep draining so the
        // producer and workers can exit before the error propagates.
        let mut pending: BTreeMap<usize, R> = BTreeMap::new();
        let mut next = 0usize;
        let mut assemble_err: Option<SpotError> = None;
        loop {
            let (msg, _) = match out_q.recv() {
                Ok(m) => m,
                Err(e) => {
                    assemble_err.get_or_insert(e);
                    break;
                }
            };
            let Some((i, r)) = msg else { break };
            if assemble_err.is_some() {
                continue;
            }
            pending.insert(i, r);
            while let Some(r) = pending.remove(&next) {
                let out_span = spot_trace::span_owned(Cat::Stream, || format!("out #{next}"));
                let res = consume(next, r);
                drop(out_span);
                if let Err(e) = res {
                    assemble_err.get_or_insert(e);
                    break;
                }
                next += 1;
            }
        }

        let produced = producer_handle.join().expect("producer thread panicked");
        let per_worker = server_handle.join().expect("server pool panicked");
        (produced, per_worker, assemble_err, next)
    });

    let (produced, per_worker, assemble_err, consumed) = match scope_result {
        Ok(v) => v,
        Err(payload) => std::panic::resume_unwind(payload),
    };

    let produced = produced?;
    if let Some(e) = assemble_err {
        return Err(e);
    }
    stats.wall_s = t0.elapsed().as_secs_f64();
    stats.client_blocked_s = produced.blocked.as_secs_f64();
    stats.client_s = produced
        .finished
        .duration_since(t0)
        .saturating_sub(produced.blocked)
        .as_secs_f64();
    stats.input_items = produced.pushed;
    stats.output_items = consumed;
    for worker_result in per_worker {
        let (idle, busy) = worker_result?;
        stats.server_idle_s += idle.as_secs_f64();
        stats.server_busy_s += busy.as_secs_f64();
    }
    Ok(stats)
}

// ---------------------------------------------------------------------
// All-input (barrier) streaming driver
// ---------------------------------------------------------------------

/// Streams ciphertexts for a scheme whose every output depends on the
/// full input set (`OutputDependency::AllInputs`: channel-wise packing,
/// Cheetah): the producer uploads through the same bounded channel, but
/// no server job can start before the last input arrives, so the whole
/// upload span is measured as server idle — the stall SPOT's per-input
/// structure eliminates. Once the inputs are staged, `n_jobs` jobs run
/// on the worker pool (`work(j, &inputs)`), and `consume` receives
/// results in job order.
pub fn run_stream_barrier<T, R, P, W, C>(
    config: &StreamConfig,
    n_jobs: usize,
    producer: P,
    work: W,
    mut consume: C,
) -> Result<StreamStats, SpotError>
where
    T: Send + Sync,
    R: Send,
    P: FnOnce(&mut Feeder<'_, T>) -> Result<(), SpotError> + Send,
    W: Fn(usize, &[T]) -> R + Sync,
    C: FnMut(usize, R) -> Result<(), SpotError>,
{
    let t0 = Instant::now();
    let in_q: BoundedQueue<(usize, T)> = BoundedQueue::bounded(config.channel_capacity);
    let workers = config.executor.threads().min(n_jobs.max(1));

    let mut stats = StreamStats {
        channel_capacity: config.channel_capacity,
        server_threads: workers,
        ..StreamStats::default()
    };

    // Stage 1: drain the full upload; the server's workers are parked
    // until the barrier clears.
    let barrier_span =
        spot_trace::span(Cat::Stream, "barrier (await all inputs)").arg("workers", workers as u64);
    let session = spot_trace::session_counters();
    let scope_result = thread::scope(|s| {
        let in_q = &in_q;
        let producer_handle = s.spawn(move |_| {
            if let Some(sink) = session {
                spot_trace::set_session_counters(Some(sink));
            }
            run_producer(in_q, config.channel_capacity, producer)
        });
        let mut inputs: Vec<T> = Vec::new();
        let mut drain_err: Option<SpotError> = None;
        loop {
            let (msg, _) = match in_q.recv() {
                Ok(m) => m,
                Err(e) => {
                    drain_err.get_or_insert(e);
                    break;
                }
            };
            let Some((i, item)) = msg else { break };
            debug_assert_eq!(i, inputs.len(), "single producer delivers in order");
            inputs.push(item);
        }
        let produced = producer_handle.join().expect("producer thread panicked");
        (inputs, produced, drain_err)
    });
    let (inputs, produced, drain_err) = match scope_result {
        Ok(v) => v,
        Err(payload) => std::panic::resume_unwind(payload),
    };
    let produced = produced?;
    if let Some(e) = drain_err {
        return Err(e);
    }

    drop(barrier_span);
    let barrier_cleared = Instant::now();
    let upload_span = barrier_cleared.duration_since(t0);
    stats.server_idle_s = upload_span.as_secs_f64() * workers as f64;
    stats.client_blocked_s = produced.blocked.as_secs_f64();
    stats.client_s = produced
        .finished
        .duration_since(t0)
        .saturating_sub(produced.blocked)
        .as_secs_f64();
    stats.input_items = produced.pushed;

    // Stage 2: all inputs present — run the job fan-out on the pool.
    let cursor = AtomicUsize::new(0);
    let inputs_ref = &inputs;
    let work = &work;
    let per_worker = config.executor.run_workers(workers, |w| {
        spot_trace::set_thread_label(format!("server-{w}"));
        let mut busy = Duration::ZERO;
        let mut done: Vec<(usize, R)> = Vec::new();
        loop {
            let j = cursor.fetch_add(1, Ordering::Relaxed);
            if j >= n_jobs {
                break;
            }
            let job_span = spot_trace::span_owned(Cat::Stream, || format!("job #{j}"));
            let job_start = Instant::now();
            let r = work(j, inputs_ref.as_slice());
            busy += job_start.elapsed();
            drop(job_span);
            done.push((j, r));
        }
        spot_trace::flush_thread();
        (busy, done)
    });

    let mut slots: Vec<Option<R>> = (0..n_jobs).map(|_| None).collect();
    for (busy, done) in per_worker {
        stats.server_busy_s += busy.as_secs_f64();
        for (j, r) in done {
            slots[j] = Some(r);
        }
    }
    for (j, slot) in slots.into_iter().enumerate() {
        let r = slot.ok_or(SpotError::Disconnected("barrier job produced no result"))?;
        let out_span = spot_trace::span_owned(Cat::Stream, || format!("out #{j}"));
        consume(j, r)?;
        drop(out_span);
    }
    stats.output_items = n_jobs;
    stats.wall_s = t0.elapsed().as_secs_f64();
    Ok(stats)
}

// ---------------------------------------------------------------------
// Cross-image batch assembler
// ---------------------------------------------------------------------

struct AssemblerState<T> {
    /// Queued items with their arrival times (front = oldest).
    items: VecDeque<(Instant, T)>,
    closed: bool,
}

/// Coalesces queued inference requests into batches for the cross-image
/// SIMD-slot batching path ([`crate::session::ClientConv::send_batch`]).
///
/// Submitters enqueue items as they arrive; the dispatch loop calls
/// [`BatchAssembler::next_batch`], which returns as soon as `capacity`
/// items are queued — or once the **oldest** queued item has waited
/// `latency_cap`, whatever is queued by then. A lone request is
/// therefore never starved waiting for company: its worst-case queueing
/// delay is the latency cap, and under load batches fill instantly.
pub struct BatchAssembler<T> {
    state: Mutex<AssemblerState<T>>,
    nonempty: Condvar,
    capacity: usize,
    latency_cap: Duration,
}

impl<T> std::fmt::Debug for BatchAssembler<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchAssembler")
            .field("capacity", &self.capacity)
            .field("latency_cap", &self.latency_cap)
            .field("queued", &self.queued())
            .finish()
    }
}

impl<T> BatchAssembler<T> {
    /// An assembler forming batches of at most `capacity` items
    /// (clamped to ≥ 1, typically [`ClientConv::batch_capacity`]),
    /// releasing partial batches after `latency_cap`.
    ///
    /// [`ClientConv::batch_capacity`]: crate::session::ClientConv::batch_capacity
    pub fn new(capacity: usize, latency_cap: Duration) -> Self {
        Self {
            state: Mutex::new(AssemblerState {
                items: VecDeque::new(),
                closed: false,
            }),
            nonempty: Condvar::new(),
            capacity: capacity.max(1),
            latency_cap,
        }
    }

    /// The batch-width bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The partial-batch release deadline.
    pub fn latency_cap(&self) -> Duration {
        self.latency_cap
    }

    /// Enqueues one item. Fails once the assembler is closed.
    pub fn submit(&self, item: T) -> Result<(), SpotError> {
        let mut st = self
            .state
            .lock()
            .map_err(|_| SpotError::Poisoned("batch assembler"))?;
        if st.closed {
            return Err(SpotError::Disconnected("submit on closed batch assembler"));
        }
        st.items.push_back((Instant::now(), item));
        let depth = st.items.len() as u64;
        drop(st);
        self.nonempty.notify_all();
        gauge(Cat::Stream, "batch_queue_depth", depth);
        Ok(())
    }

    /// Queued items not yet taken into a batch.
    pub fn queued(&self) -> usize {
        self.state.lock().map(|st| st.items.len()).unwrap_or(0)
    }

    /// Closes the assembler: submitters get an error; `next_batch`
    /// drains what is queued, then returns `None`. Idempotent.
    pub fn close(&self) {
        if let Ok(mut st) = self.state.lock() {
            st.closed = true;
        }
        self.nonempty.notify_all();
    }

    /// Blocks for the next batch, in submission order: returns up to
    /// `capacity` items as soon as they are queued, a partial batch
    /// once the oldest queued item has waited `latency_cap` (or the
    /// assembler closes), and `None` once closed and drained.
    pub fn next_batch(&self) -> Result<Option<Vec<T>>, SpotError> {
        let mut st = self
            .state
            .lock()
            .map_err(|_| SpotError::Poisoned("batch assembler"))?;
        loop {
            if st.items.len() >= self.capacity || (st.closed && !st.items.is_empty()) {
                return Ok(Some(Self::drain(&mut st, self.capacity)));
            }
            if st.closed {
                return Ok(None);
            }
            match st.items.front() {
                Some(&(arrived, _)) => {
                    let deadline = arrived + self.latency_cap;
                    let now = Instant::now();
                    if now >= deadline {
                        return Ok(Some(Self::drain(&mut st, self.capacity)));
                    }
                    st = self
                        .nonempty
                        .wait_timeout(st, deadline - now)
                        .map_err(|_| SpotError::Poisoned("batch assembler"))?
                        .0;
                }
                None => {
                    st = self
                        .nonempty
                        .wait(st)
                        .map_err(|_| SpotError::Poisoned("batch assembler"))?;
                }
            }
        }
    }

    fn drain(st: &mut AssemblerState<T>, capacity: usize) -> Vec<T> {
        let take = st.items.len().min(capacity);
        let batch: Vec<T> = st.items.drain(..take).map(|(_, item)| item).collect();
        count(Counter::QueuePopped, batch.len() as u64);
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    fn cfg(threads: usize, cap: usize) -> StreamConfig {
        StreamConfig::new(Executor::new(threads), cap)
    }

    #[test]
    fn queue_fifo_and_close() {
        let q: BoundedQueue<u32> = BoundedQueue::bounded(4);
        q.send(1).unwrap();
        q.send(2).unwrap();
        assert_eq!(q.recv().unwrap().0, Some(1));
        q.close();
        assert_eq!(q.recv().unwrap().0, Some(2));
        assert_eq!(q.recv().unwrap().0, None);
    }

    #[test]
    fn send_on_closed_queue_errors_instead_of_panicking() {
        let q: BoundedQueue<u32> = BoundedQueue::bounded(4);
        q.close();
        assert!(matches!(q.send(1), Err(SpotError::Disconnected(_))));
    }

    #[test]
    fn queue_backpressure_blocks_sender() {
        let q: BoundedQueue<u32> = BoundedQueue::bounded(1);
        let released = AtomicBool::new(false);
        thread::scope(|s| {
            let q = &q;
            let released = &released;
            s.spawn(move |_| {
                q.send(1).unwrap(); // fills the queue
                let waited = q.send(2).unwrap(); // must block until recv
                assert!(released.load(Ordering::SeqCst), "send returned before recv");
                assert!(waited > Duration::ZERO);
                q.close();
            });
            std::thread::sleep(Duration::from_millis(30));
            released.store(true, Ordering::SeqCst);
            assert_eq!(q.recv().unwrap().0, Some(1));
            assert_eq!(q.recv().unwrap().0, Some(2));
            assert_eq!(q.recv().unwrap().0, None);
        })
        .unwrap();
    }

    #[test]
    fn stream_results_consumed_in_order() {
        for threads in [1usize, 2, 8] {
            for cap in [1usize, 3, 64] {
                let mut out = Vec::new();
                let stats = run_stream(
                    &cfg(threads, cap),
                    |feeder| {
                        for v in 0..50u64 {
                            feeder.push(v)?;
                        }
                        Ok(())
                    },
                    |i, v| {
                        // uneven cost to shuffle completion order
                        let spin = (v * 7919) % 50;
                        let mut acc = 0u64;
                        for k in 0..spin * 200 {
                            acc = acc.wrapping_add(k);
                        }
                        std::hint::black_box(acc);
                        (i as u64) * 100 + v
                    },
                    |i, r| {
                        out.push((i, r));
                        Ok(())
                    },
                )
                .unwrap();
                let expect: Vec<(usize, u64)> =
                    (0..50).map(|v| (v as usize, (v as u64) * 101)).collect();
                assert_eq!(out, expect, "threads={threads} cap={cap}");
                assert_eq!(stats.input_items, 50);
                assert_eq!(stats.output_items, 50);
                assert!(stats.wall_s > 0.0);
            }
        }
    }

    #[test]
    fn producer_error_propagates_without_deadlock() {
        let err = run_stream(
            &cfg(2, 1),
            |feeder: &mut Feeder<'_, u64>| {
                feeder.push(1)?;
                Err(SpotError::Protocol("client gave up".into()))
            },
            |_, v: u64| v,
            |_, _| Ok(()),
        )
        .unwrap_err();
        assert!(matches!(err, SpotError::Protocol(_)));
    }

    #[test]
    fn barrier_waits_for_all_inputs() {
        let seen = Mutex::new(Vec::new());
        let stats = run_stream_barrier(
            &cfg(4, 2),
            3,
            |feeder| {
                for v in 0..6u64 {
                    std::thread::sleep(Duration::from_millis(5));
                    feeder.push(v)?;
                }
                Ok(())
            },
            |j, inputs: &[u64]| {
                assert_eq!(inputs.len(), 6, "all inputs staged before any job");
                j as u64 + inputs.iter().sum::<u64>()
            },
            |j, r| {
                seen.lock().unwrap().push((j, r));
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(seen.into_inner().unwrap(), vec![(0, 15), (1, 16), (2, 17)]);
        assert_eq!(stats.input_items, 6);
        assert_eq!(stats.output_items, 3);
        // ~30 ms of upload with 3 parked workers (pool is capped at n_jobs).
        assert_eq!(stats.server_threads, 3);
        assert!(
            stats.server_idle_s >= 0.025 * 3.0,
            "idle {} too small",
            stats.server_idle_s
        );
    }

    #[test]
    fn per_input_idle_less_than_barrier_idle() {
        // Same synthetic layer on a 1-thread server: per-input streaming
        // overlaps upload with compute; the barrier cannot.
        let produce = |feeder: &mut Feeder<'_, u64>| {
            for v in 0..8u64 {
                std::thread::sleep(Duration::from_millis(4));
                feeder.push(v)?;
            }
            Ok(())
        };
        let spin = |v: u64| {
            let t = Instant::now();
            while t.elapsed() < Duration::from_millis(4) {
                std::hint::black_box(v);
            }
            v
        };
        let s1 = run_stream(&cfg(1, 2), produce, |_, v| spin(v), |_, _| Ok(())).unwrap();
        let s2 = run_stream_barrier(
            &cfg(1, 2),
            8,
            produce,
            |j, _: &[u64]| spin(j as u64),
            |_, _| Ok(()),
        )
        .unwrap();
        assert!(
            s1.server_idle_s < s2.server_idle_s,
            "per-input idle {} should beat barrier idle {}",
            s1.server_idle_s,
            s2.server_idle_s
        );
    }

    #[test]
    fn stats_accumulate_sums_fields() {
        let mut a = StreamStats {
            wall_s: 1.0,
            server_idle_s: 0.25,
            input_items: 4,
            channel_capacity: 2,
            ..StreamStats::default()
        };
        let b = StreamStats {
            wall_s: 2.0,
            server_idle_s: 0.5,
            input_items: 6,
            channel_capacity: 3,
            ..StreamStats::default()
        };
        a.accumulate(&b);
        assert_eq!(a.wall_s, 3.0);
        assert_eq!(a.server_idle_s, 0.75);
        assert_eq!(a.input_items, 10);
        assert_eq!(a.channel_capacity, 3);
    }

    #[test]
    fn config_uses_device_budget() {
        let ct_bytes = 200_000;
        let client = DeviceProfile::nexus6().with_capacity(3, ct_bytes);
        let cfg = StreamConfig::for_client(Executor::new(4), &client, ct_bytes);
        assert_eq!(cfg.channel_capacity, 3);
        assert_eq!(StreamConfig::new(Executor::serial(), 0).channel_capacity, 1);
    }

    #[test]
    fn assembler_full_batch_released_immediately() {
        // A long latency cap must not delay a full batch.
        let asm: BatchAssembler<u32> = BatchAssembler::new(2, Duration::from_secs(60));
        for v in 0..5 {
            asm.submit(v).unwrap();
        }
        let t0 = Instant::now();
        assert_eq!(asm.next_batch().unwrap(), Some(vec![0, 1]));
        assert_eq!(asm.next_batch().unwrap(), Some(vec![2, 3]));
        assert!(t0.elapsed() < Duration::from_secs(5));
        assert_eq!(asm.queued(), 1);
        asm.close();
        assert_eq!(asm.next_batch().unwrap(), Some(vec![4]));
        assert_eq!(asm.next_batch().unwrap(), None);
    }

    #[test]
    fn assembler_latency_cap_releases_lone_item() {
        let asm: BatchAssembler<u32> = BatchAssembler::new(8, Duration::from_millis(30));
        asm.submit(7).unwrap();
        let t0 = Instant::now();
        assert_eq!(asm.next_batch().unwrap(), Some(vec![7]));
        let waited = t0.elapsed();
        assert!(
            waited >= Duration::from_millis(25),
            "partial batch released after {waited:?}, before the cap"
        );
    }

    #[test]
    fn assembler_submit_after_close_errors() {
        let asm: BatchAssembler<u32> = BatchAssembler::new(4, Duration::ZERO);
        asm.close();
        assert!(matches!(asm.submit(1), Err(SpotError::Disconnected(_))));
        assert_eq!(asm.next_batch().unwrap(), None);
    }

    #[test]
    fn assembler_preserves_submission_order_across_threads() {
        let asm: BatchAssembler<u32> = BatchAssembler::new(3, Duration::from_millis(10));
        let collected = Mutex::new(Vec::new());
        thread::scope(|s| {
            let asm = &asm;
            let collected = &collected;
            s.spawn(move |_| {
                for v in 0..20u32 {
                    asm.submit(v).unwrap();
                    if v % 7 == 0 {
                        std::thread::sleep(Duration::from_millis(3));
                    }
                }
                asm.close();
            });
            while let Some(batch) = asm.next_batch().unwrap() {
                assert!(!batch.is_empty() && batch.len() <= 3);
                collected.lock().unwrap().extend(batch);
            }
        })
        .unwrap();
        assert_eq!(collected.into_inner().unwrap(), (0..20).collect::<Vec<_>>());
    }
}
