//! The worker pool for server-side convolution work.
//!
//! The per-ciphertext convolutions of every scheme ([`crate::spot`],
//! [`crate::channelwise`], [`crate::cheetah`]) are independent: no job
//! reads another's output and none touches the protocol randomness
//! (masking happens on the sequential path). [`crate::stream::run_stream`]
//! fans them across this pool and hands results back **in job order**
//! regardless of which worker finished when — so the produced
//! ciphertexts, shares and operation counts are bit-identical for any
//! thread count.

use crossbeam::thread;

/// A fixed-width pool of scoped worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    threads: usize,
}

impl Default for Executor {
    /// Defaults to one thread per available CPU.
    fn default() -> Self {
        Self::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }
}

impl Executor {
    /// An executor with the given worker count (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// The single-worker executor: jobs run one at a time, in order.
    pub fn serial() -> Self {
        Self { threads: 1 }
    }

    /// The worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Spawns `workers` scoped threads, runs `f(worker_index)` on each,
    /// and returns the per-worker results in worker order.
    ///
    /// This is the pool primitive under the conv driver
    /// ([`crate::stream::run_stream`]): `f` loops over a shared work
    /// source (a queue, then an atomic cursor) until it is exhausted.
    /// A panic on any worker is propagated to the
    /// caller after all threads have joined. With `workers == 1` the
    /// closure runs inline on the caller's thread.
    pub fn run_workers<R, F>(&self, workers: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let workers = workers.max(1);
        if workers == 1 {
            return vec![f(0)];
        }
        // Per-session counter attribution crosses the pool boundary:
        // workers inherit the spawning thread's session sink so HE ops
        // executed on their behalf land in the right session's totals.
        let session = spot_trace::session_counters();
        let result = thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let f = &f;
                    let session = session.clone();
                    s.spawn(move |_| {
                        if let Some(sink) = session {
                            spot_trace::set_session_counters(Some(sink));
                        }
                        f(w)
                    })
                })
                .collect();
            let mut out = Vec::with_capacity(workers);
            let mut panic = None;
            for h in handles {
                match h.join() {
                    Ok(r) => out.push(r),
                    Err(payload) => panic = Some(payload),
                }
            }
            if let Some(payload) = panic {
                std::panic::resume_unwind(payload);
            }
            out
        });
        match result {
            Ok(v) => v,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_count_clamps_to_one() {
        assert_eq!(Executor::new(0).threads(), 1);
        assert_eq!(Executor::serial().threads(), 1);
    }
}
