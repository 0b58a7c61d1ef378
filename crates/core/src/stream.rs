//! The server's conv driver: one round of server work, for every scheme
//! and backend.
//!
//! The paper is one distinction. A SPOT result needs *one* input
//! ciphertext; a channel-wise or Cheetah result needs *all* of them; the
//! difference is the "linear computation stall".
//! [`spot_pipeline::plan::OutputDependency`] says it in one enum and
//! [`run_stream`] executes it in one body: **a job waits for the inputs
//! it reads**. An ingest thread — the uplink's only reader — reads the
//! round's frames in order, queueing each input through a bounded
//! [`spot_proto::Queue`] and taking what travels behind it before the
//! next (the session's rotation-key frames: a key travels behind the
//! input that makes the first job using it runnable); the
//! [`Executor`]'s worker threads stage (deserialise) each input as it
//! arrives and run a job as soon as its inputs are staged; results are
//! consumed in job order on the calling thread, where the mask rng
//! lives.
//!
//! The queue bound ([`StreamConfig::channel_capacity`]) is only the
//! server's read-ahead. The bound that models the tiny client's
//! ciphertext memory lives where the client is — on the link
//! (`MemTransport::pair_with_capacity`, the same [`spot_proto::Queue`];
//! the socket buffer) — because the client is on the far side of the
//! transport.
//!
//! ## Determinism
//!
//! Staging and jobs are pure; results are consumed in job order on one
//! thread. Given the same rng seed a layer's shares are bit-identical
//! for any worker count, queue bound and backend — enforced by
//! `tests/streaming_determinism.rs` at 1 and 8 server threads and by
//! `tests/wire_golden.rs` against committed digests.
//!
//! ## Stall accounting
//!
//! One definition for both dependency classes:
//! [`StreamStats::server_idle_s`] is the worker thread-seconds spent
//! blocked waiting for a runnable job *or for a rotation key* while the
//! upload is open: time inside the ingest queue's `recv`, which this
//! driver measures, plus time inside the connection's key store's
//! `wait`, which a job's `work` spends and the session layer moves from
//! busy to idle (`session.rs::serve_rounds`, the one place) and reports
//! beside it as [`StreamStats::key_wait_s`]. Under
//! `PerInput` that is the gap between one ciphertext and the next;
//! under `AllInputs` it is the whole upload, on every worker; under
//! either, the keys the client is still generating when a rotation
//! wants them — measured, not assigned.
//! [`stall_table`] renders runs' [`StreamStats`] side by side. When
//! `spot_trace` is enabled the same intervals appear as spans
//! (`stage #i`, `conv #j`, `idle`,
//! `wait key`, `out #j` on the workers and the caller, `blocked
//! (channel full)` on the `server-ingest` thread), which is what the
//! `stream_timeline` binary and the `--trace` flags export.

use crate::error::SpotError;
use crate::executor::Executor;
use crossbeam::thread;
use spot_pipeline::plan::OutputDependency;
use spot_pipeline::report::{secs, Table};
use spot_proto::Queue;
use spot_trace::{count, gauge, Cat, Counter, SessionCounters};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Queues `item` on one of the driver's queues and records the
/// hand-off (the queue itself counts nothing); returns the time the
/// send blocked on backpressure.
fn push<T>(q: &Queue<T>, item: T) -> Result<Duration, SpotError> {
    let blocked = q.send(item)?;
    count(Counter::QueuePushed, 1);
    count(Counter::QueueBlockedNs, blocked.as_nanos() as u64);
    if spot_trace::enabled() {
        gauge(Cat::Stream, "queue_depth", q.depth() as u64);
    }
    Ok(blocked)
}

/// Takes the next item of one of the driver's queues (`None` once it
/// is closed and drained) and records the hand-off; also returns the
/// time the receive blocked.
fn pop<T>(q: &Queue<T>) -> (Option<T>, Duration) {
    let (item, waited) = q.recv();
    if item.is_some() {
        count(Counter::QueuePopped, 1);
        if spot_trace::enabled() {
            gauge(Cat::Stream, "queue_depth", q.depth() as u64);
        }
    }
    (item, waited)
}

// ---------------------------------------------------------------------
// Configuration and stats
// ---------------------------------------------------------------------

/// Driver configuration: the server worker pool and how many received
/// frames the ingest thread may hold ahead of the workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Server-side worker pool.
    pub executor: Executor,
    /// The server's read-ahead: frames received but not yet staged.
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
}

/// Measured wall-clock accounting for one [`run_stream`] round (or,
/// accumulated, for a session's rounds).
///
/// `server_busy_s`/`server_idle_s` are thread-seconds summed over the
/// worker pool; the rest are wall-clock seconds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StreamStats {
    /// End-to-end wall time.
    pub wall_s: f64,
    /// The ingest thread's time outside back-pressure: waiting on the
    /// transport for the client's next frame. The in-process harness
    /// ([`crate::session::run_in_process`]) substitutes the real client
    /// thread's active time.
    pub client_s: f64,
    /// Ingest back-pressure: time the ingest thread held a received
    /// frame it could not queue, i.e. the server was the bottleneck.
    /// The in-process harness substitutes the client's measured send
    /// back-pressure on the bounded uplink.
    pub client_blocked_s: f64,
    /// Worker thread-seconds spent staging inputs and running jobs.
    pub server_busy_s: f64,
    /// Worker thread-seconds blocked waiting for a runnable job or for
    /// a rotation key while the upload was open — the measured "linear
    /// computation stall".
    pub server_idle_s: f64,
    /// Of `server_idle_s`, the thread-seconds spent waiting for a
    /// rotation key (booked by the session layer, which owns the key
    /// store); the rest is the wait for ciphertexts — the paper's
    /// quantity, which no key upload touches.
    pub key_wait_s: f64,
    /// Input frames ingested.
    pub input_items: usize,
    /// Job results consumed.
    pub output_items: usize,
    /// Ingest queue bound used.
    pub channel_capacity: usize,
    /// Server worker count.
    pub server_threads: usize,
}

impl StreamStats {
    /// Folds another round's stats into this one (a network serves
    /// layer after layer). Timeline detail lives in the
    /// `spot_trace` event stream, not here.
    pub fn accumulate(&mut self, other: &StreamStats) {
        self.wall_s += other.wall_s;
        self.client_s += other.client_s;
        self.client_blocked_s += other.client_blocked_s;
        self.server_busy_s += other.server_busy_s;
        self.server_idle_s += other.server_idle_s;
        self.key_wait_s += other.key_wait_s;
        self.input_items += other.input_items;
        self.output_items += other.output_items;
        self.channel_capacity = self.channel_capacity.max(other.channel_capacity);
        self.server_threads = self.server_threads.max(other.server_threads);
    }

    /// Share of worker time spent computing, `busy / (busy + idle)` in
    /// [0, 1] (0 when the workers did nothing). Not the cross-party
    /// overlap efficiency, which needs the client's trace
    /// (`spot_trace::correlate`).
    pub fn server_busy_share(&self) -> f64 {
        let (busy, idle) = (self.server_busy_s, self.server_idle_s);
        if busy + idle > 0.0 {
            (busy / (busy + idle)).clamp(0.0, 1.0)
        } else {
            0.0
        }
    }
}

/// Renders measured stall accounting, one `(label, stats)` row each
/// (the measured counterpart of the simulator's Table I/II stall
/// columns). The two server columns are thread-seconds summed across
/// workers; on a single-thread server they are wall-clock too, which
/// is how the paper-style stall comparison is read.
pub fn stall_table(title: impl Into<String>, rows: &[(&str, &StreamStats)]) -> String {
    let mut table = Table::new(
        title,
        &[
            "scheme",
            "wall",
            "client",
            "client blocked",
            "server busy",
            "server idle",
            "of it: keys",
            "in cts",
            "out cts",
            "chan cap",
            "threads",
        ],
    );
    for (label, s) in rows {
        table.row(&[
            label.to_string(),
            secs(s.wall_s),
            secs(s.client_s),
            secs(s.client_blocked_s),
            secs(s.server_busy_s),
            secs(s.server_idle_s),
            secs(s.key_wait_s),
            s.input_items.to_string(),
            s.output_items.to_string(),
            match s.channel_capacity {
                usize::MAX => "-".to_string(),
                bound => bound.to_string(),
            },
            s.server_threads.to_string(),
        ]);
    }
    table.render()
}

// ---------------------------------------------------------------------
// The server conv driver
// ---------------------------------------------------------------------

/// One round of server work as the driver sees it: how many inputs
/// arrive, how many jobs run, and which inputs a job reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Round {
    /// Whether job `j` reads input `j` alone or the whole round.
    pub dependency: OutputDependency,
    /// Inputs the ingest thread receives, in order.
    pub inputs: usize,
    /// Jobs to run (one per input under [`OutputDependency::PerInput`]).
    pub jobs: usize,
}

/// Closes a queue when dropped, so a thread that fails or unwinds still
/// releases every thread blocked on that queue.
struct CloseOnDrop<'q, T>(&'q Queue<T>);

impl<T> Drop for CloseOnDrop<'_, T> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// Keeps a wait span only if the wait really blocked.
pub(crate) fn end_wait(span: spot_trace::Span, waited: Duration) {
    if waited > Duration::ZERO {
        drop(span);
    } else {
        span.cancel();
    }
}

/// Spawns `f` on a thread of `scope` labelled `label` whose wire and HE
/// counters go to `session`, the sink of the thread running the round.
fn spawn_counted<'scope, X: Send + 'scope>(
    scope: &thread::Scope<'scope, '_>,
    session: &Option<Arc<SessionCounters>>,
    label: String,
    f: impl FnOnce() -> X + Send + 'scope,
) -> thread::ScopedJoinHandle<'scope, X> {
    let session = session.clone();
    scope.spawn(move |_| {
        if session.is_some() {
            spot_trace::set_session_counters(session);
        }
        spot_trace::set_thread_label(label);
        f()
    })
}

/// Runs `f` as one traced, timed step of worker compute.
fn busy_step<X>(busy: &mut Duration, name: impl FnOnce() -> String, f: impl FnOnce() -> X) -> X {
    let _span = spot_trace::span_owned(Cat::Stream, name);
    let t0 = Instant::now();
    let x = f();
    *busy += t0.elapsed();
    x
}

/// Runs one round of server work: **a job waits for the inputs it
/// reads**, and for nothing else.
///
/// Three roles, the same for every scheme and backend:
///
/// * an **ingest thread** runs `ingest(queue)` once: it reads the round
///   off the link in order and hands each input's raw frame to `queue`,
///   which numbers it and pushes it through a queue bounded by
///   [`StreamConfig::channel_capacity`], the server's read-ahead. What
///   arrives behind input `i`, for the jobs it made runnable (its own
///   job under `PerInput`, every job behind the last input under
///   `AllInputs`), `ingest` reads before input `i + 1`, so the link has
///   one reader, a job is runnable before what travels behind its input
///   is read, and what a running job waits for is never behind a full
///   queue. An `ingest` that queues other than the round's inputs fails
///   the round;
/// * the [`Executor`]'s **worker threads** take frames as they arrive,
///   *stages* each (`stage(i, frame)`, the deserialisation) and runs job
///   `j` (`work(j, inputs)`) as soon as the inputs it reads are staged:
///   `[input j]` the moment that input lands under
///   [`OutputDependency::PerInput`], the whole round once its last input
///   lands under [`OutputDependency::AllInputs`];
/// * the **calling thread** receives results through `consume` in job
///   order, overlapped with everything above. It is the only place a
///   caller may draw randomness.
///
/// The stall has one definition for both classes:
/// [`StreamStats::server_idle_s`] is the worker thread-seconds spent
/// blocked waiting for a runnable job while the upload is open. (What a
/// job's `work` spends blocked on something `ingest` delivers is stall
/// too; the caller knows how much and moves it, see the module doc.)
///
/// `stage` and `work` must be pure, so the composition is bit-identical
/// for any worker count and queue bound. An error from any of the five
/// closures ends the round: every thread is released and joined, and
/// the call returns the error of the step that failed first in the
/// chain stage/work → consume → ingest. A `work` that blocks on what
/// `ingest` reads behind its input must be released by `ingest` on every
/// path out, an error included. A panic on a worker propagates to the
/// caller the same way.
pub fn run_stream<F, T, R>(
    config: &StreamConfig,
    round: Round,
    ingest: impl FnOnce(&mut dyn FnMut(F) -> Result<(), SpotError>) -> Result<(), SpotError> + Send,
    stage: impl Fn(usize, F) -> Result<T, SpotError> + Sync,
    work: impl Fn(usize, &[T]) -> Result<R, SpotError> + Sync,
    mut consume: impl FnMut(usize, R) -> Result<(), SpotError>,
) -> Result<StreamStats, SpotError>
where
    F: Send,
    T: Send + Sync,
    R: Send,
{
    let t0 = Instant::now();
    let in_q: Queue<(usize, F)> = Queue::bounded(config.channel_capacity);
    // Unbounded: workers never block on the consumer.
    let out_q: Queue<(usize, R)> = Queue::unbounded();
    let workers = config.executor.threads().min(round.jobs.max(1));
    // `AllInputs` only: the inputs staged so far, then the whole round.
    let staging: Mutex<Vec<Option<T>>> = Mutex::new((0..round.inputs).map(|_| None).collect());
    let staged: OnceLock<Vec<T>> = OnceLock::new();
    let next_job = AtomicUsize::new(0);

    // One worker. The queue closes when the last input a job could be
    // waiting for is in hand, which is also what wakes the others.
    let serve = |idle: &mut Duration, busy: &mut Duration| -> Result<(), SpotError> {
        let run_job = |busy: &mut Duration, j: usize, inputs: &[T]| {
            let r = busy_step(busy, || format!("conv #{j}"), || work(j, inputs))?;
            push(&out_q, (j, r)).map(drop)
        };
        loop {
            let idle_span = spot_trace::span(Cat::Stream, "idle");
            let (msg, waited) = pop(&in_q);
            end_wait(idle_span, waited);
            *idle += waited;
            let Some((i, frame)) = msg else { break };
            let input = busy_step(busy, || format!("stage #{i}"), || stage(i, frame))?;
            match round.dependency {
                // Job `i` reads this input alone: it is runnable now.
                OutputDependency::PerInput => {
                    if i + 1 == round.inputs {
                        in_q.close();
                    }
                    run_job(busy, i, &[input])?;
                }
                // Every job reads the whole round: all of them become
                // runnable when its last input is staged.
                OutputDependency::AllInputs => {
                    let mut slots = staging
                        .lock()
                        .map_err(|_| SpotError::Poisoned("staged inputs"))?;
                    slots[i] = Some(input);
                    if slots.iter().all(Option::is_some) {
                        let whole = std::mem::take(&mut *slots).into_iter().flatten();
                        let _ = staged.set(whole.collect());
                        in_q.close();
                    }
                }
            }
        }
        // Unset when the round failed before its last input landed.
        if let Some(inputs) = staged.get() {
            loop {
                let j = next_job.fetch_add(1, Ordering::Relaxed);
                if j >= round.jobs {
                    break;
                }
                run_job(busy, j, inputs)?;
            }
        }
        Ok(())
    };

    // Every thread of the round is spawned in this one scope, each by
    // `spawn_counted`: their wire and HE ops stay attributed to the
    // calling thread's session.
    let session = spot_trace::session_counters();
    let scope_result = thread::scope(|s| {
        let (in_q, out_q, serve) = (&in_q, &out_q, &serve);

        let ingest_handle = spawn_counted(s, &session, "server-ingest".into(), move || {
            let closer = CloseOnDrop(in_q);
            let (mut blocked, mut inputs) = (Duration::ZERO, 0..round.inputs);
            let short = || SpotError::Protocol("the upload is not the round's inputs".into());
            let result = ingest(&mut |frame| {
                let i = inputs.next().ok_or_else(short)?;
                let wait_span = spot_trace::span(Cat::Stream, "blocked (channel full)");
                let waited = push(in_q, (i, frame))?;
                end_wait(wait_span, waited);
                blocked += waited;
                Ok(())
            });
            let result = result.and_then(|()| inputs.next().map_or(Ok(()), |_| Err(short())));
            // After a full upload the worker holding the last input
            // closes the queue; the ingest thread only does on failure.
            if result.is_ok() && round.inputs > 0 {
                std::mem::forget(closer);
            }
            spot_trace::flush_thread();
            result.map(|()| (blocked, Instant::now()))
        });

        // However the workers end, no more results appear once the last
        // one has: each holds the closer, and the last to let go closes.
        let done = Arc::new(CloseOnDrop(out_q));
        let worker_handles: Vec<_> = (0..workers)
            .map(|w| {
                let done = Arc::clone(&done);
                spawn_counted(s, &session, format!("server-{w}"), move || {
                    let _done = done;
                    // A worker that fails or panics ends the round.
                    let _release = CloseOnDrop(in_q);
                    let (mut idle, mut busy) = (Duration::ZERO, Duration::ZERO);
                    let result = serve(&mut idle, &mut busy);
                    spot_trace::flush_thread();
                    result.map(|()| (idle, busy))
                })
            })
            .collect();
        drop(done);

        // Overlapped assembly on the caller's thread, in job order. A
        // consume failure ends the round but keeps draining, so the
        // other threads can exit before the error propagates.
        let mut pending: BTreeMap<usize, R> = BTreeMap::new();
        let mut next = 0usize;
        let mut consume_err: Option<SpotError> = None;
        while let (Some((j, r)), _) = pop(out_q) {
            if consume_err.is_some() {
                continue;
            }
            pending.insert(j, r);
            while let Some(r) = pending.remove(&next) {
                let _span = spot_trace::span_owned(Cat::Stream, || format!("out #{next}"));
                if let Err(e) = consume(next, r) {
                    consume_err = Some(e);
                    in_q.close();
                    break;
                }
                next += 1;
            }
        }
        let per_worker: Vec<_> = worker_handles.into_iter().map(|h| h.join()).collect();
        (ingest_handle.join(), per_worker, consume_err, next)
    });

    let (ingested, per_worker, consume_err, consumed) = match scope_result {
        Ok(v) => v,
        Err(payload) => std::panic::resume_unwind(payload),
    };
    // A worker's panic propagates once every thread has joined.
    let per_worker: Vec<_> = (per_worker.into_iter())
        .collect::<thread::Result<_>>()
        .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
    let (mut idle, mut busy) = (Duration::ZERO, Duration::ZERO);
    for worker in per_worker {
        let (i, b) = worker?;
        idle += i;
        busy += b;
    }
    if let Some(e) = consume_err {
        return Err(e);
    }
    let (blocked, finished) =
        ingested.unwrap_or_else(|payload| std::panic::resume_unwind(payload))?;
    Ok(StreamStats {
        wall_s: t0.elapsed().as_secs_f64(),
        client_s: (finished.duration_since(t0))
            .saturating_sub(blocked)
            .as_secs_f64(),
        client_blocked_s: blocked.as_secs_f64(),
        server_busy_s: busy.as_secs_f64(),
        server_idle_s: idle.as_secs_f64(),
        key_wait_s: 0.0,
        input_items: round.inputs,
        output_items: consumed,
        channel_capacity: config.channel_capacity,
        server_threads: workers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicBool;
    use std::sync::Condvar;

    fn cfg(threads: usize, cap: usize) -> StreamConfig {
        StreamConfig::new(Executor::new(threads), cap)
    }

    const CLASSES: [OutputDependency; 2] =
        [OutputDependency::PerInput, OutputDependency::AllInputs];

    fn round(dependency: OutputDependency, inputs: usize, jobs: usize) -> Round {
        Round {
            dependency,
            inputs,
            jobs,
        }
    }

    /// Uneven job cost, to shuffle completion order.
    fn spin_unevenly(v: u64) {
        let mut acc = 0u64;
        for k in 0..((v * 7919) % 50) * 200 {
            acc = acc.wrapping_add(k);
        }
        std::hint::black_box(acc);
    }

    #[test]
    fn results_consumed_in_job_order_and_every_job_runs_once() {
        for dependency in CLASSES {
            for threads in [1usize, 2, 8] {
                for cap in [1usize, 3, 64] {
                    let tag = format!("{dependency:?} threads={threads} cap={cap}");
                    // 50 inputs; one job each, or 20 that read them all.
                    let jobs = match dependency {
                        OutputDependency::PerInput => 50,
                        OutputDependency::AllInputs => 20,
                    };
                    let ran = Mutex::new(HashSet::new());
                    let mut out = Vec::new();
                    let stats = run_stream(
                        &cfg(threads, cap),
                        round(dependency, 50, jobs),
                        |queue| (0..50).try_for_each(queue),
                        |i, v: usize| Ok((i as u64) * 100 + v as u64),
                        |j, inputs: &[u64]| {
                            assert!(ran.lock().unwrap().insert(j), "{tag}: job {j} ran twice");
                            spin_unevenly(j as u64);
                            Ok((j as u64) * 10_000 + inputs.iter().sum::<u64>())
                        },
                        |j, r| {
                            out.push((j, r));
                            Ok(())
                        },
                    )
                    .unwrap();
                    let whole: u64 = (0..50).map(|v| v * 101).sum();
                    let expect: Vec<(usize, u64)> = (0..jobs as u64)
                        .map(|j| match dependency {
                            OutputDependency::PerInput => (j as usize, j * 10_000 + j * 101),
                            OutputDependency::AllInputs => (j as usize, j * 10_000 + whole),
                        })
                        .collect();
                    assert_eq!(out, expect, "{tag}");
                    assert_eq!(ran.into_inner().unwrap().len(), jobs, "{tag}");
                    assert_eq!(stats.input_items, 50, "{tag}");
                    assert_eq!(stats.output_items, jobs, "{tag}");
                    assert_eq!(stats.server_threads, threads.min(jobs), "{tag}");
                    assert!(stats.wall_s > 0.0, "{tag}");
                }
            }
        }
    }

    #[test]
    fn zero_and_one_job() {
        for dependency in CLASSES {
            for n in [0usize, 1] {
                let mut out = Vec::new();
                let stats = run_stream(
                    &cfg(8, 2),
                    round(dependency, n, n),
                    |queue| (0..n).try_for_each(|_| queue(41u32)),
                    |_, v| Ok(v),
                    |_, inputs: &[u32]| Ok(inputs[0] + 1),
                    |j, r| {
                        out.push((j, r));
                        Ok(())
                    },
                )
                .unwrap();
                let expect: Vec<(usize, u32)> = (0..n).map(|j| (j, 42)).collect();
                assert_eq!(out, expect, "{dependency:?} n={n}");
                assert_eq!(stats.output_items, n);
            }
        }
    }

    #[test]
    fn per_input_job_completes_before_the_next_input_arrives() {
        // Input 1 is only handed over once job 0 has finished: the run
        // completes because a per-input job waits for its own input
        // alone. (Under `AllInputs` the same schedule could never start
        // a job; the next test pins that side.)
        let (done_tx, done_rx) = std::sync::mpsc::channel::<usize>();
        let done_tx = Mutex::new(done_tx);
        let mut out = Vec::new();
        run_stream(
            &cfg(2, 1),
            round(OutputDependency::PerInput, 4, 4),
            move |queue| {
                (0..4).try_for_each(|i| {
                    if i > 0 {
                        assert_eq!(done_rx.recv().unwrap(), i - 1);
                    }
                    queue(i)
                })
            },
            |_, v| Ok(v),
            |j, inputs: &[usize]| {
                assert_eq!(inputs, [j]);
                // Nobody waits for the last job: ingest has gone by then.
                done_tx.lock().unwrap().send(j).ok();
                Ok(j)
            },
            |j, r| {
                out.push((j, r));
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(out, vec![(0, 0), (1, 1), (2, 2), (3, 3)]);
    }

    #[test]
    fn a_job_may_wait_for_what_the_ingest_reads_behind_its_input() {
        // One worker, one queue slot: every job blocks until what
        // travels behind the input that made it runnable has been read
        // — `behind j` per input, `behind 3` for the whole all-inputs
        // round — with later inputs still to come. It completes because
        // that read comes before the next input is even read.
        for dependency in CLASSES {
            let round = round(dependency, 4, 4);
            let order = Mutex::new(Vec::new());
            let delivered = (Mutex::new(0usize), Condvar::new());
            let stats = run_stream(
                &cfg(1, 1),
                round,
                |queue| {
                    (0..4).try_for_each(|i| {
                        order.lock().unwrap().push(format!("in{i}"));
                        queue(i)?;
                        order.lock().unwrap().push(format!("behind{i}"));
                        *delivered.0.lock().unwrap() = i + 1;
                        delivered.1.notify_all();
                        Ok(())
                    })
                },
                |_, v| Ok(v),
                |j, _: &[usize]| {
                    let sides = delivered.0.lock().unwrap();
                    let needed = match dependency {
                        OutputDependency::PerInput => j + 1,
                        OutputDependency::AllInputs => round.inputs,
                    };
                    drop(delivered.1.wait_while(sides, |ran| *ran < needed).unwrap());
                    Ok(j)
                },
                |_, _| Ok(()),
            )
            .unwrap();
            assert_eq!(
                order.into_inner().unwrap().join(" "),
                "in0 behind0 in1 behind1 in2 behind2 in3 behind3",
                "{dependency:?}"
            );
            assert_eq!(stats.output_items, 4);
        }
    }

    #[test]
    fn all_inputs_jobs_wait_for_the_last_input() {
        let last_handed_over = AtomicBool::new(false);
        let seen = Mutex::new(Vec::new());
        let stats = run_stream(
            &cfg(4, 2),
            round(OutputDependency::AllInputs, 6, 3),
            |queue| {
                (0..6).try_for_each(|i| {
                    std::thread::sleep(Duration::from_millis(5));
                    if i == 5 {
                        last_handed_over.store(true, Ordering::SeqCst);
                    }
                    queue(i as u64)
                })
            },
            |_, v| Ok(v),
            |j, inputs: &[u64]| {
                assert!(
                    last_handed_over.load(Ordering::SeqCst),
                    "job {j} started before the last input"
                );
                assert_eq!(inputs, [0, 1, 2, 3, 4, 5], "inputs staged in upload order");
                Ok(j as u64 + inputs.iter().sum::<u64>())
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
        // ~30 ms of upload with 3 parked workers (pool is capped at the
        // job count), each measuring its own wait.
        assert_eq!(stats.server_threads, 3);
        assert!(
            stats.server_idle_s >= 0.025 * 3.0,
            "idle {} too small",
            stats.server_idle_s
        );
    }

    #[test]
    fn per_input_idle_less_than_all_inputs_idle() {
        // Same synthetic layer on a 1-thread server: per-input jobs
        // overlap the upload with compute; all-input jobs cannot.
        let spin = |v: usize| {
            let t = Instant::now();
            while t.elapsed() < Duration::from_millis(4) {
                std::hint::black_box(v);
            }
            Ok(v)
        };
        let [s1, s2] = CLASSES.map(|dependency| {
            run_stream(
                &cfg(1, 2),
                round(dependency, 8, 8),
                |queue| {
                    (0..8).try_for_each(|i| {
                        std::thread::sleep(Duration::from_millis(4));
                        queue(i)
                    })
                },
                |_, v| Ok(v),
                |j, _: &[usize]| spin(j),
                |_, _| Ok(()),
            )
            .unwrap()
        });
        assert!(
            s1.server_idle_s < s2.server_idle_s,
            "per-input idle {} should beat all-inputs idle {}",
            s1.server_idle_s,
            s2.server_idle_s
        );
    }

    #[test]
    fn an_error_from_any_step_ends_the_round_with_that_error() {
        // Step 0 = ingest, 1 = stage, 2 = work, 3 = consume; each fails
        // on its second item, with more inputs still to come and a full
        // queue behind it. Step 4 = the ingest, behind that item.
        let fail = |step: usize, at: usize, i: usize| match step == at && i == 1 {
            true => Err(SpotError::Protocol(format!("step {at} gave up"))),
            false => Ok(()),
        };
        for dependency in CLASSES {
            for threads in [1usize, 4] {
                for step in 0..5 {
                    let err = run_stream(
                        &cfg(threads, 1),
                        round(dependency, 6, 6),
                        |queue| {
                            (0..6).try_for_each(|i| {
                                fail(step, 0, i)?;
                                queue(i)?;
                                fail(step, 4, i)
                            })
                        },
                        |i, v| fail(step, 1, i).map(|()| v),
                        |j, _: &[usize]| fail(step, 2, j).map(|()| j),
                        |j, _| fail(step, 3, j),
                    )
                    .unwrap_err();
                    let tag = format!("{dependency:?} threads={threads}");
                    match err {
                        SpotError::Protocol(why) => {
                            assert_eq!(why, format!("step {step} gave up"), "{tag}")
                        }
                        other => panic!("{tag} step {step}: wrong error {other:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn an_ingest_that_queues_other_than_the_rounds_inputs_fails() {
        for dependency in CLASSES {
            for queued in [5, 3] {
                let err = run_stream(
                    &cfg(2, 8),
                    round(dependency, 4, 4),
                    |queue| (0..queued).try_for_each(queue),
                    |_, v| Ok(v),
                    |j, _: &[usize]| Ok(j),
                    |_, _| Ok(()),
                )
                .unwrap_err();
                let why = "the upload is not the round's inputs";
                assert!(
                    matches!(&err, SpotError::Protocol(w) if w == why),
                    "{err:?}"
                );
            }
        }
    }

    fn panic_in_job_three(dependency: OutputDependency) {
        let _ = run_stream(
            &cfg(4, 2),
            round(dependency, 8, 8),
            |queue| (0..8).try_for_each(queue),
            |_, v| Ok(v),
            |j, _: &[usize]| {
                if j == 3 {
                    panic!("job 3 failed");
                }
                Ok(j)
            },
            |_, _| Ok(()),
        );
    }

    #[test]
    #[should_panic(expected = "job 3 failed")]
    fn worker_panic_propagates_per_input() {
        panic_in_job_three(OutputDependency::PerInput);
    }

    #[test]
    #[should_panic(expected = "job 3 failed")]
    fn worker_panic_propagates_all_inputs() {
        panic_in_job_three(OutputDependency::AllInputs);
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
    fn config_clamps_capacity_to_one() {
        assert_eq!(StreamConfig::new(Executor::serial(), 0).channel_capacity, 1);
    }
}
