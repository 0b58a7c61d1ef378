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
//!
//! Every session is one tiny client with its own secret key, so no two
//! clients' ciphertexts ever share SIMD slots: batching is a client's
//! own (`ClientConv::batch_capacity` images under its key), never the
//! server's.

use crate::error::SpotError;
use crate::executor::Executor;
use crate::inference::TinyCnn;
use crate::session::{ExecBackend, ServeOptions, SharedKernelCaches};
use crate::stream::StreamConfig;
use crate::twoparty::{run_server_with, ServerReport};
use rand::rngs::StdRng;
use rand::SeedableRng;
use spot_he::context::Context;
use spot_proto::transport::TransportStats;
use spot_proto::{error_code, Transport, WireMessage};
use spot_trace::{Cat, CounterSnapshot, SessionCounters};
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
}

impl WorkerPool {
    /// A pool with `total` grantable extra worker slots (0 = every
    /// session runs serial on its connection thread).
    pub fn new(total: usize) -> Arc<Self> {
        Arc::new(Self {
            available: Mutex::new(total),
        })
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
        let admitted = Admitted(self);

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
            }
            Err(e) => {
                // Tell the client why before hanging up (best effort —
                // the transport may already be gone).
                let (code, detail) = wire_error_for(e);
                let _ = transport.send(&WireMessage::Error { code, detail });
                transport.close_tx();
                self.stats.failed.fetch_add(1, Ordering::Relaxed);
            }
        }
        spot_trace::set_session_counters(prev_sink);
        drop(admitted);
        let counters = sink.snapshot();
        let wall = t0.elapsed();
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

/// An admitted session's admission slot, released on drop. A session
/// thread that unwinds therefore frees its slot (and is counted as
/// failed) instead of eating it forever.
struct Admitted<'a>(&'a SpotServer);

impl Drop for Admitted<'_> {
    fn drop(&mut self) {
        let server = self.0;
        if std::thread::panicking() {
            server.stats.failed.fetch_add(1, Ordering::Relaxed);
        }
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
}
