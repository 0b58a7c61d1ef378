//! Multi-tenant serving layer: N concurrent sessions over one shared
//! model and one bounded worker pool.
//!
//! The single-client stack ([`crate::session`], [`crate::twoparty`])
//! assumes one process, one connection. This module turns it into a
//! serving layer:
//!
//! * [`ModelContext`] — the per-model immutable state every session
//!   shares: the HE context, the model weights, and the
//!   [`SharedKernelCaches`] holding the NTT-domain kernel plaintexts,
//!   so lifted kernels are built **once per model**, not once per
//!   connection. Galois keys are deliberately *not* here: they are
//!   client key material and live in their connection's
//!   [`crate::session::ConnectionKeys`], never past it and never
//!   beside another client's.
//! * [`WorkerPool`] — a slot semaphore bounding the *extra* executor
//!   threads live across all sessions. Every session always owns its
//!   connection thread (worker 0), so a claim never blocks and
//!   sessions can never deadlock waiting on each other; results stay
//!   bit-identical at any grant because the [`Executor`] reassembles
//!   job order.
//! * [`SpotServer`] — admission control (max sessions, per-session
//!   ciphertext budget via [`ServeOptions::max_batch`]) and the
//!   per-session run loop: install a [`SessionCounters`] sink, derive
//!   the session's mask seed from the accept order via
//!   [`session_seed`], run the two-party server, and on failure send
//!   the typed [`WireMessage::Error`] frame so the client learns *why*
//!   instead of seeing a dead socket. A failing session never touches
//!   its neighbours.
//! * [`TenantGateway`] — cross-session batching. Ciphertexts under
//!   different secret keys cannot share SIMD slots, so coalescing
//!   happens where the key is shared: logical clients of one tenant
//!   submit through a gateway whose request [`Queue`] releases queued
//!   inferences as shared-slot batches (`Queue::recv_batch`) before
//!   opening one upstream session per batch.

use crate::error::SpotError;
use crate::executor::Executor;
use crate::inference::TinyCnn;
use crate::patching::PatchMode;
use crate::session::{ExecBackend, SchemeKind, ServeOptions, SharedKernelCaches};
use crate::stream::{StreamConfig, StreamStats};
use crate::twoparty::{run_client_batch, run_server_with, ServerReport};
use rand::rngs::StdRng;
use rand::SeedableRng;
use spot_he::context::Context;
use spot_he::keys::KeyGenerator;
use spot_proto::transport::TransportStats;
use spot_proto::{error_code, Queue, Transport, WireMessage};
use spot_tensor::tensor::Tensor;
use spot_trace::{log_info, log_warn, metrics, Cat, CounterSnapshot, SessionCounters};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Shared per-model state
// ---------------------------------------------------------------------

/// The immutable state one served model contributes to every session:
/// HE execution parameters, encoded weights, and the shared NTT-domain
/// kernel caches. Hand an `Arc<ModelContext>` to the server and every
/// connection of that model reuses the same lifted kernel plaintexts.
#[derive(Debug)]
pub struct ModelContext {
    id: String,
    ctx: Arc<Context>,
    cnn: TinyCnn,
    caches: SharedKernelCaches,
}

impl ModelContext {
    /// Wraps a model (weights + HE context) for serving.
    pub fn new(id: impl Into<String>, ctx: Arc<Context>, cnn: TinyCnn) -> Arc<Self> {
        Arc::new(Self {
            id: id.into(),
            ctx,
            cnn,
            caches: SharedKernelCaches::new(),
        })
    }

    /// The model id sessions are keyed by.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The HE context every session of this model runs under.
    pub fn context(&self) -> &Arc<Context> {
        &self.ctx
    }

    /// The model weights.
    pub fn cnn(&self) -> &TinyCnn {
        &self.cnn
    }

    /// The model-wide kernel caches.
    pub fn caches(&self) -> &SharedKernelCaches {
        &self.caches
    }
}

// ---------------------------------------------------------------------
// Bounded worker pool
// ---------------------------------------------------------------------

/// A slot semaphore bounding the extra executor threads live across
/// all sessions — the "one bounded pool" the sessions multiplex over,
/// instead of each spawning its own full-width executor.
///
/// A claim **never blocks**: the session's own thread always counts as
/// worker 0, and only the extra threads come from the pool (first
/// come, first served). Under load late sessions degrade to serial
/// execution instead of oversubscribing the host, and because the
/// [`Executor`] orders results deterministically the grant width never
/// changes any session's bytes or shares.
#[derive(Debug)]
pub struct WorkerPool {
    available: Mutex<usize>,
    total: usize,
}

impl WorkerPool {
    /// A pool with `total` grantable extra worker slots (0 = every
    /// session runs serial on its connection thread).
    pub fn new(total: usize) -> Arc<Self> {
        Arc::new(Self {
            available: Mutex::new(total),
            total,
        })
    }

    /// Total extra slots the pool was built with.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Extra slots currently unclaimed.
    pub fn available(&self) -> usize {
        *self.available.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Claims up to `want - 1` extra slots for a session that would
    /// like `want` threads, returning immediately with whatever is
    /// free. The claim releases its slots on drop.
    pub fn claim(self: &Arc<Self>, want: usize) -> WorkerClaim {
        let wanted_extra = want.max(1) - 1;
        let mut avail = self.available.lock().unwrap_or_else(|p| p.into_inner());
        let extra = wanted_extra.min(*avail);
        *avail -= extra;
        drop(avail);
        WorkerClaim {
            pool: Arc::clone(self),
            extra,
        }
    }
}

/// A session's slice of the [`WorkerPool`]; slots return on drop.
#[derive(Debug)]
pub struct WorkerClaim {
    pool: Arc<WorkerPool>,
    extra: usize,
}

impl WorkerClaim {
    /// Threads this session may run: its own plus the granted extras.
    pub fn threads(&self) -> usize {
        1 + self.extra
    }
}

impl Drop for WorkerClaim {
    fn drop(&mut self) {
        let mut avail = self
            .pool
            .available
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        *avail += self.extra;
    }
}

// ---------------------------------------------------------------------
// Serving configuration & admission control
// ---------------------------------------------------------------------

/// Serving-layer policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServingConfig {
    /// Concurrent-session cap; connection N+1 is refused with a typed
    /// `SERVER_FULL` wire error instead of queueing or OOMing.
    pub max_sessions: usize,
    /// Per-session ciphertext-memory budget, expressed as the largest
    /// `Setup` batch admitted (see [`ServeOptions::max_batch`]).
    /// `None` = only the layer's own SIMD capacity limits the batch.
    pub max_batch: Option<usize>,
    /// Threads a session asks the [`WorkerPool`] for.
    pub threads_per_session: usize,
    /// Extra worker slots shared by all sessions ([`WorkerPool::new`]).
    pub pool_workers: usize,
    /// Bound the server's read-ahead at `channel_capacity` frames
    /// instead of leaving it unbounded. Both settings run the same
    /// driver ([`crate::stream::run_stream`]).
    pub streaming: bool,
    /// Read-ahead bound per session (ignored unless `streaming`).
    pub channel_capacity: usize,
    /// Base seed; session `i` masks with [`session_seed`]`(base, i)`.
    pub base_seed: u64,
}

impl Default for ServingConfig {
    fn default() -> Self {
        Self {
            max_sessions: 16,
            max_batch: None,
            threads_per_session: 1,
            pool_workers: 0,
            streaming: false,
            channel_capacity: 2,
            base_seed: 1312,
        }
    }
}

/// Monotonic serving totals ([`SpotServer::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServingStats {
    /// Sessions completed successfully.
    pub served: usize,
    /// Connections refused by admission control.
    pub rejected: usize,
    /// Admitted sessions that failed mid-protocol.
    pub failed: usize,
}

#[derive(Debug, Default)]
struct StatsCells {
    served: AtomicUsize,
    rejected: AtomicUsize,
    failed: AtomicUsize,
}

/// The server's live-registry histograms, registered once at
/// construction so every series exists (at zero) from the first
/// `/metrics` scrape, before any session has run. Session totals are
/// not here: a scrape reads them from [`SpotServer::stats`] and
/// [`SpotServer::active_sessions`], the cells `/sessions` reads.
#[derive(Debug)]
struct ServerMetrics {
    session_wall_ns: Arc<metrics::Histogram>,
    // The server's own view of each session's stall, from its
    // StreamStats: worker busy / (busy + idle) in parts-per-million
    // (registry values are integers), idle/blocked in
    // thread-nanoseconds.
    server_busy_share_ppm: Arc<metrics::Histogram>,
    overlap_server_idle_ns: Arc<metrics::Histogram>,
    overlap_client_blocked_ns: Arc<metrics::Histogram>,
}

impl ServerMetrics {
    fn new() -> Self {
        let reg = metrics::global();
        Self {
            session_wall_ns: reg.histogram("spot_session_wall_ns", &[]),
            server_busy_share_ppm: reg.histogram("spot_server_busy_share_ppm", &[]),
            overlap_server_idle_ns: reg.histogram("spot_overlap_server_idle_ns", &[]),
            overlap_client_blocked_ns: reg.histogram("spot_overlap_client_blocked_ns", &[]),
        }
    }
}

// ---------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------

/// Everything one finished (or refused) session reports back.
#[derive(Debug)]
pub struct SessionReport {
    /// Session id in accept order (`u64::MAX` for a refused
    /// connection, which consumes no id).
    pub id: u64,
    /// The server mask seed the session ran with.
    pub seed: u64,
    /// The two-party outcome, or why the session ended early.
    pub result: Result<ServerReport, SpotError>,
    /// This session's slice of the trace counters (HE ops, wire
    /// bytes/frames, queue stalls), attributed via [`SessionCounters`].
    pub counters: CounterSnapshot,
    /// Transport accounting for the session's connection.
    pub traffic: TransportStats,
    /// Wall-clock from accept to teardown.
    pub wall: Duration,
}

/// One session's stall summary, kept in a bounded ring on the server
/// for the admin `/pipeline` view: the server's own
/// [`StreamStats`] of the session — no client trace required — so it
/// is available live, per session, the moment the session finishes.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineSummary {
    /// Session id (accept order).
    pub id: u64,
    /// End-to-end session wall time, milliseconds.
    pub wall_ms: f64,
    /// The session's driver accounting, summed over its layers.
    pub stream: StreamStats,
}

impl PipelineSummary {
    fn from_report(id: u64, wall: Duration, report: &ServerReport) -> Option<Self> {
        if report.stream.input_items == 0 {
            return None; // no conv layer ran: nothing to attribute
        }
        Some(Self {
            id,
            wall_ms: wall.as_secs_f64() * 1e3,
            stream: report.stream.clone(),
        })
    }
}

/// Ring capacity for [`SpotServer::pipeline_recent`].
const PIPELINE_RING: usize = 32;

/// A concurrent inference server for one [`ModelContext`].
///
/// [`SpotServer::serve_connection`] is designed to be called from one
/// thread per accepted connection (or per [`spot_proto::MemTransport`]
/// end); the server itself holds only shared state and is `Sync`.
#[derive(Debug)]
pub struct SpotServer {
    model: Arc<ModelContext>,
    config: ServingConfig,
    pool: Arc<WorkerPool>,
    active: AtomicUsize,
    next_id: AtomicU64,
    stats: StatsCells,
    metrics: ServerMetrics,
    // Admitted, still-running sessions: id -> admission instant. Feeds
    // the admin endpoint's `/sessions` view.
    in_flight: Mutex<BTreeMap<u64, Instant>>,
    // Last PIPELINE_RING sessions' overlap summaries, newest
    // last. Feeds the admin endpoint's `/pipeline` view.
    pipeline: Mutex<std::collections::VecDeque<PipelineSummary>>,
}

impl SpotServer {
    /// A server for `model` under the given policy.
    pub fn new(model: Arc<ModelContext>, config: ServingConfig) -> Self {
        Self {
            model,
            config,
            pool: WorkerPool::new(config.pool_workers),
            active: AtomicUsize::new(0),
            next_id: AtomicU64::new(0),
            stats: StatsCells::default(),
            metrics: ServerMetrics::new(),
            in_flight: Mutex::new(BTreeMap::new()),
            pipeline: Mutex::new(std::collections::VecDeque::new()),
        }
    }

    /// The served model.
    pub fn model(&self) -> &Arc<ModelContext> {
        &self.model
    }

    /// The serving policy.
    pub fn config(&self) -> &ServingConfig {
        &self.config
    }

    /// Sessions currently admitted and running.
    pub fn active_sessions(&self) -> usize {
        self.active.load(Ordering::Acquire)
    }

    /// The shared worker pool (admin introspection).
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// Whether the server would currently degrade new work: sessions at
    /// the admission cap (the next connection is refused), or a
    /// non-empty worker pool fully claimed (new sessions run serial).
    /// This is the `/healthz` "overloaded" predicate.
    pub fn overloaded(&self) -> bool {
        self.active_sessions() >= self.config.max_sessions
            || (self.pool.total() > 0 && self.pool.available() == 0)
    }

    /// `(id, time since admission)` for every in-flight session, in id
    /// order (the admin endpoint's `/sessions` view).
    pub fn session_info(&self) -> Vec<(u64, Duration)> {
        let in_flight = self.in_flight.lock().unwrap_or_else(|p| p.into_inner());
        in_flight
            .iter()
            .map(|(&id, t0)| (id, t0.elapsed()))
            .collect()
    }

    /// The overlap summaries of the most recent sessions that ran a
    /// convolution (oldest first, at most 32) — the admin `/pipeline`
    /// view. Phased sessions are recorded too: every session runs the
    /// one stream driver, `streaming` only bounds its read-ahead.
    pub fn pipeline_recent(&self) -> Vec<PipelineSummary> {
        let ring = self.pipeline.lock().unwrap_or_else(|p| p.into_inner());
        ring.iter().cloned().collect()
    }

    /// Monotonic serving totals so far.
    pub fn stats(&self) -> ServingStats {
        ServingStats {
            served: self.stats.served.load(Ordering::Relaxed),
            rejected: self.stats.rejected.load(Ordering::Relaxed),
            failed: self.stats.failed.load(Ordering::Relaxed),
        }
    }

    /// Runs one client connection to completion on the calling thread.
    ///
    /// Admission first: at the session cap the connection is refused
    /// with a typed `SERVER_FULL` error frame and no session id is
    /// consumed. Admitted sessions get an id in admission order, the
    /// mask seed [`session_seed`]`(base_seed, id)`, a per-session
    /// counter sink, and a worker-pool claim; a protocol failure sends
    /// the typed error frame back (best effort) and is contained to
    /// this session.
    pub fn serve_connection(&self, transport: &dyn Transport) -> SessionReport {
        let t0 = Instant::now();
        // Reserve a slot or refuse — CAS loop so two racing accepts
        // can't both squeeze past the cap.
        let mut cur = self.active.load(Ordering::Acquire);
        loop {
            if cur >= self.config.max_sessions {
                self.stats.rejected.fetch_add(1, Ordering::Relaxed);
                let detail = format!("at capacity ({} sessions)", self.config.max_sessions);
                log_warn!("serving", "rejecting connection: {detail}");
                let _ = transport.send(&WireMessage::Error {
                    code: error_code::SERVER_FULL,
                    detail: detail.clone(),
                });
                transport.close_tx();
                return SessionReport {
                    id: u64::MAX,
                    seed: 0,
                    result: Err(SpotError::Rejected {
                        code: error_code::SERVER_FULL,
                        detail,
                    }),
                    counters: CounterSnapshot::default(),
                    traffic: transport.stats(),
                    wall: t0.elapsed(),
                };
            }
            match self.active.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break,
                Err(now) => cur = now,
            }
        }
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        let seed = session_seed(self.config.base_seed, id);
        let admitted = Admitted::new(self, id, t0);

        // Attribute every counter this thread (and its pool workers)
        // touches to this session.
        let sink = SessionCounters::new(id);
        let prev_sink = spot_trace::set_session_counters(Some(Arc::clone(&sink)));
        spot_trace::set_thread_label(format!("session-{id}"));
        let span = spot_trace::span(Cat::Server, "session").arg("session", id);

        let claim = self.pool.claim(self.config.threads_per_session);
        let ex = Executor::new(claim.threads());
        let backend = if self.config.streaming {
            ExecBackend::Streaming(StreamConfig::new(ex, self.config.channel_capacity))
        } else {
            ExecBackend::Phased(ex)
        };
        let opts = ServeOptions {
            shared: Some(self.model.caches()),
            max_batch: self.config.max_batch,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let result = run_server_with(
            self.model.context(),
            transport,
            self.model.cnn(),
            &backend,
            opts,
            &mut rng,
        );
        drop(claim);
        drop(span);

        match &result {
            Ok(_) => {
                self.stats.served.fetch_add(1, Ordering::Relaxed);
                log_info!("serving", "session {id} done");
            }
            Err(e) => {
                // Tell the client why before hanging up (best effort —
                // the transport may already be gone).
                let (code, detail) = wire_error_for(e);
                let _ = transport.send(&WireMessage::Error { code, detail });
                transport.close_tx();
                self.stats.failed.fetch_add(1, Ordering::Relaxed);
                log_warn!("serving", "session {id} failed: {e}");
            }
        }
        spot_trace::set_session_counters(prev_sink);
        drop(admitted);
        let counters = sink.snapshot();
        let wall = t0.elapsed();
        self.metrics.session_wall_ns.observe(wall.as_nanos() as u64);
        if let Ok(report) = &result {
            if let Some(summary) = PipelineSummary::from_report(id, wall, report) {
                let s = &summary.stream;
                let m = &self.metrics;
                m.server_busy_share_ppm
                    .observe((s.server_busy_share() * 1e6) as u64);
                m.overlap_server_idle_ns
                    .observe((s.server_idle_s * 1e9) as u64);
                m.overlap_client_blocked_ns
                    .observe((s.client_blocked_s * 1e9) as u64);
                let mut ring = self.pipeline.lock().unwrap_or_else(|p| p.into_inner());
                if ring.len() == PIPELINE_RING {
                    ring.pop_front();
                }
                ring.push_back(summary);
            }
        }
        SessionReport {
            id,
            seed,
            result,
            counters,
            traffic: transport.stats(),
            wall,
        }
    }
}

/// An admitted session's claim on the server: its admission slot and
/// its `/sessions` entry, released together on drop. A session thread
/// that unwinds therefore frees its slot (and is counted as failed)
/// instead of eating it forever.
struct Admitted<'a> {
    server: &'a SpotServer,
    id: u64,
}

impl<'a> Admitted<'a> {
    /// Registers session `id`; the caller has already reserved the
    /// admission slot in `server.active`.
    fn new(server: &'a SpotServer, id: u64, since: Instant) -> Self {
        server
            .in_flight
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .insert(id, since);
        Self { server, id }
    }
}

impl Drop for Admitted<'_> {
    fn drop(&mut self) {
        let server = self.server;
        if std::thread::panicking() {
            server.stats.failed.fetch_add(1, Ordering::Relaxed);
        }
        server
            .in_flight
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .remove(&self.id);
        server.active.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Maps a session failure to the typed wire error sent to the client.
fn wire_error_for(e: &SpotError) -> (u16, String) {
    match e {
        SpotError::Rejected { code, detail } => (*code, detail.clone()),
        other => (error_code::PROTOCOL, other.to_string()),
    }
}

/// The deterministic per-session mask seed: a splitmix64-style mix of
/// the server's base seed and the session id, so any session can be
/// replayed solo (same seed, same masks, bit-identical shares) without
/// the sessions that ran beside it.
pub fn session_seed(base: u64, session_id: u64) -> u64 {
    let mut z = base ^ session_id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------
// Cross-session batching: the tenant gateway
// ---------------------------------------------------------------------

/// Where a queued inference's result arrives: a one-slot [`Queue`] the
/// gateway dispatcher sends exactly one result into, and the
/// submitting logical client `recv`s.
pub type Reply = Arc<Queue<Result<Tensor, SpotError>>>;

/// One queued inference: its input, when it arrived, and where its
/// result goes.
#[derive(Debug)]
struct Request {
    input: Tensor,
    arrived: Instant,
    reply: Reply,
}

/// Coalesces queued inferences from many logical clients of one
/// tenant into shared SIMD-slot batches.
///
/// SIMD-slot sharing requires one secret key per ciphertext, so
/// *cross-client* batching is only sound where clients share a key —
/// a tenant gateway (an app backend fanning in its users' requests).
/// Requests [`TenantGateway::submit`]ted here queue in one [`Queue`];
/// a dispatcher thread takes a batch as soon as `capacity` requests
/// are queued, or whatever is queued once the oldest request has
/// waited `latency_cap` (a lone request never starves waiting for
/// company), drives it through one upstream session, and answers each
/// request's [`Reply`] in submission order.
#[derive(Debug)]
pub struct TenantGateway {
    requests: Queue<Request>,
    capacity: usize,
    latency_cap: Duration,
}

impl TenantGateway {
    /// A gateway batching up to `capacity` requests (at least 1,
    /// typically [`crate::session::ClientConv::batch_capacity`]),
    /// holding a partial batch at most `latency_cap` past its oldest
    /// request.
    pub fn new(capacity: usize, latency_cap: Duration) -> Self {
        Self {
            requests: Queue::unbounded(),
            capacity,
            latency_cap,
        }
    }

    /// Queues one inference; its [`Reply`] receives the result once
    /// its batch has been served. Fails once the gateway is closed.
    pub fn submit(&self, input: Tensor) -> Result<Reply, SpotError> {
        let reply = Arc::new(Queue::bounded(1));
        self.requests.send(Request {
            input,
            arrived: Instant::now(),
            reply: Arc::clone(&reply),
        })?;
        Ok(reply)
    }

    /// Stops accepting requests; the dispatcher drains what's queued
    /// and returns.
    pub fn close(&self) {
        self.requests.close();
    }

    /// The gateway's dispatcher loop: drains batches until the gateway
    /// is closed, opening one upstream connection per batch via
    /// `connect` and running the tenant's client session over it.
    /// Returns the number of batches dispatched. A failed batch fails
    /// only its own requests; later batches still run.
    #[allow(clippy::too_many_arguments)]
    pub fn run_dispatcher<F>(
        &self,
        ctx: &Arc<Context>,
        keygen: &KeyGenerator,
        cnn: &TinyCnn,
        scheme: SchemeKind,
        patch: (usize, usize),
        mode: PatchMode,
        mut connect: F,
        rng: &mut StdRng,
    ) -> usize
    where
        F: FnMut() -> Result<Box<dyn Transport>, SpotError>,
    {
        let mut batches = 0usize;
        let due = |r: &Request| r.arrived + self.latency_cap;
        while let Some(batch) = self.requests.recv_batch(self.capacity, due) {
            batches += 1;
            let (inputs, replies): (Vec<Tensor>, Vec<Reply>) =
                batch.into_iter().map(|r| (r.input, r.reply)).unzip();
            let outcome = connect().and_then(|transport| {
                run_client_batch(
                    ctx,
                    keygen,
                    transport.as_ref(),
                    &inputs,
                    cnn,
                    scheme,
                    patch,
                    mode,
                    rng,
                )
            });
            // Each reply holds one result and gets exactly one, so
            // these sends neither block nor fail.
            match outcome {
                Ok(outputs) => {
                    for (reply, out) in replies.iter().zip(outputs) {
                        let _ = reply.send(Ok(out));
                    }
                }
                Err(e) => {
                    for reply in &replies {
                        let _ = reply.send(Err(e.clone()));
                    }
                }
            }
        }
        batches
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_pool_grants_and_releases() {
        let pool = WorkerPool::new(3);
        let a = pool.claim(3); // wants 3 threads -> 2 extra
        assert_eq!(a.threads(), 3);
        assert_eq!(pool.available(), 1);
        let b = pool.claim(4); // only 1 extra left
        assert_eq!(b.threads(), 2);
        assert_eq!(pool.available(), 0);
        let c = pool.claim(2); // pool dry -> serial, never blocks
        assert_eq!(c.threads(), 1);
        drop(a);
        assert_eq!(pool.available(), 2);
        drop(b);
        drop(c);
        assert_eq!(pool.available(), 3);
    }

    #[test]
    fn session_seed_is_stable_and_spreads() {
        assert_eq!(session_seed(1312, 0), session_seed(1312, 0));
        let seeds: std::collections::HashSet<u64> =
            (0..64).map(|i| session_seed(1312, i)).collect();
        assert_eq!(seeds.len(), 64, "session seeds collide");
        assert_ne!(session_seed(1312, 1), session_seed(99, 1));
    }

    #[test]
    fn pipeline_summary_attributes_stall() {
        let mut report = ServerReport {
            counts: Default::default(),
            stream: StreamStats::default(),
            input_cts: 4,
            output_cts: 4,
            batch: 1,
        };
        // No conv layer ran: nothing to attribute.
        assert!(PipelineSummary::from_report(0, Duration::from_millis(5), &report).is_none());
        report.stream.input_items = 4;
        report.stream.output_items = 4;
        report.stream.server_threads = 2;
        report.stream.server_busy_s = 3.0;
        report.stream.server_idle_s = 1.0;
        report.stream.client_blocked_s = 0.25;
        let s = PipelineSummary::from_report(7, Duration::from_millis(5), &report).unwrap();
        assert_eq!(s.id, 7);
        assert_eq!(s.stream.input_items, 4);
        assert!((s.stream.server_busy_share() - 0.75).abs() < 1e-12);
        assert!((s.stream.client_blocked_s - 0.25).abs() < 1e-12);
        assert!((s.wall_ms - 5.0).abs() < 0.5);
    }
}
