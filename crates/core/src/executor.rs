//! The width of the worker pool for server-side convolution work.
//!
//! The per-ciphertext convolutions of every scheme ([`crate::spot`],
//! [`crate::channelwise`], [`crate::cheetah`]) are independent: no job
//! reads another's output and none touches the protocol randomness
//! (masking happens on the sequential path). [`crate::stream::run_stream`]
//! fans them across this many worker threads and hands results back
//! **in job order** regardless of which worker finished when — so the
//! produced ciphertexts, shares and operation counts are bit-identical
//! for any thread count.

/// How many worker threads serve a round.
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
