//! The one blocking FIFO every in-process hand-off runs on.
//!
//! The tiny client's memory bound (§III: the client blocks once `k`
//! ciphertexts are in flight) and the server's read-ahead are the same
//! mechanism, so they are one type: [`Queue`] carries both directions
//! of [`crate::MemTransport`], `spot-core`'s conv driver's ingest and
//! result queues, and the tenant gateway's request queue and reply
//! cells. Its rules are written once:
//!
//! * [`Queue::send`] blocks while `capacity` items are queued and
//!   returns the time it blocked; after [`Queue::close`] it fails with
//!   [`ProtoError::Disconnected`].
//! * [`Queue::recv`] blocks while the queue is empty and open, returns
//!   `None` once it is closed and drained, and reports the time it
//!   blocked.
//! * [`Queue::recv_batch`] releases up to `max` items as soon as `max`
//!   are queued, the queue closes, or the front item is due.
//!
//! A push wakes one receiver and a pop one sender, and the clock is
//! read only while a call actually waits, so an uncontended hand-off
//! costs a lock and a notify. The queue counts nothing: callers record
//! what they need where they call it. No code runs under the lock that
//! could leave the `VecDeque` half-updated, so a lock poisoned by a
//! panic elsewhere is taken over rather than reported.

use crate::error::ProtoError;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

#[derive(Debug)]
struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A blocking MPMC FIFO, bounded or unbounded, with close semantics.
#[derive(Debug)]
pub struct Queue<T> {
    state: Mutex<State<T>>,
    capacity: usize,
    can_send: Condvar,
    can_recv: Condvar,
}

impl<T> Queue<T> {
    /// A queue holding at most `capacity` items (clamped to ≥ 1).
    pub fn bounded(capacity: usize) -> Self {
        Self {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            capacity: capacity.max(1),
            can_send: Condvar::new(),
            can_recv: Condvar::new(),
        }
    }

    /// A queue whose `send` never blocks.
    pub fn unbounded() -> Self {
        Self::bounded(usize::MAX)
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Items queued now.
    pub fn depth(&self) -> usize {
        self.lock().items.len()
    }

    /// Queues `item`, blocking while the queue is full; returns the
    /// time spent blocked, or [`ProtoError::Disconnected`] once the
    /// queue is closed.
    pub fn send(&self, item: T) -> Result<Duration, ProtoError> {
        let mut st = self.lock();
        let mut blocked = Duration::ZERO;
        while st.items.len() >= self.capacity && !st.closed {
            let t0 = Instant::now();
            st = self.can_send.wait(st).unwrap_or_else(|p| p.into_inner());
            blocked += t0.elapsed();
        }
        if st.closed {
            return Err(ProtoError::Disconnected);
        }
        st.items.push_back(item);
        drop(st);
        self.can_recv.notify_one();
        Ok(blocked)
    }

    /// Takes the front item, blocking while the queue is empty and
    /// open; `None` once it is closed and drained. Also returns the
    /// time spent blocked.
    pub fn recv(&self) -> (Option<T>, Duration) {
        let mut st = self.lock();
        let mut blocked = Duration::ZERO;
        loop {
            if let Some(item) = st.items.pop_front() {
                drop(st);
                self.can_send.notify_one();
                return (Some(item), blocked);
            }
            if st.closed {
                return (None, blocked);
            }
            let t0 = Instant::now();
            st = self.can_recv.wait(st).unwrap_or_else(|p| p.into_inner());
            blocked += t0.elapsed();
        }
    }

    /// Takes up to `max` (≥ 1) front items in order, blocking until
    /// `max` are queued, the queue is closed, or the instant
    /// `due(front)` has passed, whichever comes first; `None` once the
    /// queue is closed and drained.
    pub fn recv_batch(&self, max: usize, due: impl Fn(&T) -> Instant) -> Option<Vec<T>> {
        let max = max.max(1);
        let mut st = self.lock();
        loop {
            let left = match st.items.front() {
                None if st.closed => return None,
                None => None,
                Some(_) if st.items.len() >= max || st.closed => Some(Duration::ZERO),
                Some(front) => Some(due(front).saturating_duration_since(Instant::now())),
            };
            st = match left {
                Some(Duration::ZERO) => {
                    let take = st.items.len().min(max);
                    let batch = st.items.drain(..take).collect();
                    drop(st);
                    self.can_send.notify_all();
                    return Some(batch);
                }
                Some(left) => {
                    let woken = self.can_recv.wait_timeout(st, left);
                    woken.unwrap_or_else(|p| p.into_inner()).0
                }
                None => self.can_recv.wait(st).unwrap_or_else(|p| p.into_inner()),
            };
        }
    }

    /// Closes the queue: later sends fail, receivers drain what is
    /// queued and then get `None`. Idempotent.
    pub fn close(&self) {
        self.lock().closed = true;
        self.can_send.notify_all();
        self.can_recv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Never due: only a full batch or a close releases one.
    fn never(_: &u32) -> Instant {
        Instant::now() + Duration::from_secs(3600)
    }

    #[test]
    fn fifo_and_close() {
        let q: Queue<u32> = Queue::bounded(4);
        q.send(1).unwrap();
        q.send(2).unwrap();
        assert_eq!(q.recv().0, Some(1));
        q.close();
        assert_eq!(q.recv().0, Some(2));
        assert_eq!(q.recv().0, None);
    }

    #[test]
    fn send_on_closed_queue_errors_instead_of_panicking() {
        let q: Queue<u32> = Queue::bounded(4);
        q.close();
        assert_eq!(q.send(1), Err(ProtoError::Disconnected));
        assert_eq!(q.recv_batch(4, never), None);
    }

    #[test]
    fn backpressure_blocks_sender() {
        let q: Queue<u32> = Queue::bounded(1);
        let released = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                q.send(1).unwrap(); // fills the queue
                let waited = q.send(2).unwrap(); // must block until recv
                assert!(released.load(Ordering::SeqCst), "send returned before recv");
                assert!(waited > Duration::ZERO);
                q.close();
            });
            std::thread::sleep(Duration::from_millis(30));
            released.store(true, Ordering::SeqCst);
            assert_eq!(q.recv().0, Some(1));
            assert_eq!(q.recv().0, Some(2));
            assert_eq!(q.recv().0, None);
        });
    }

    #[test]
    fn full_batch_released_immediately() {
        // A front item that is far from due must not delay a full batch.
        let q: Queue<u32> = Queue::unbounded();
        for v in 0..5 {
            q.send(v).unwrap();
        }
        let t0 = Instant::now();
        assert_eq!(q.recv_batch(2, never), Some(vec![0, 1]));
        assert_eq!(q.recv_batch(2, never), Some(vec![2, 3]));
        assert!(t0.elapsed() < Duration::from_secs(5));
        assert_eq!(q.depth(), 1);
        q.close();
        assert_eq!(q.recv_batch(2, never), Some(vec![4]));
        assert_eq!(q.recv_batch(2, never), None);
    }

    #[test]
    fn due_front_releases_a_lone_item() {
        let q: Queue<(Instant, u32)> = Queue::unbounded();
        q.send((Instant::now(), 7)).unwrap();
        let t0 = Instant::now();
        let due = |&(arrived, _): &(Instant, u32)| arrived + Duration::from_millis(30);
        let batch = q.recv_batch(8, due).unwrap();
        assert_eq!(batch.iter().map(|&(_, v)| v).collect::<Vec<_>>(), [7]);
        let waited = t0.elapsed();
        assert!(
            waited >= Duration::from_millis(25),
            "partial batch released after {waited:?}, before it was due"
        );
    }

    #[test]
    fn batches_preserve_send_order_across_threads() {
        let q: Queue<(Instant, u32)> = Queue::unbounded();
        let due = |&(arrived, _): &(Instant, u32)| arrived + Duration::from_millis(10);
        let mut collected = Vec::new();
        std::thread::scope(|s| {
            s.spawn(|| {
                for v in 0..20u32 {
                    q.send((Instant::now(), v)).unwrap();
                    if v % 7 == 0 {
                        std::thread::sleep(Duration::from_millis(3));
                    }
                }
                q.close();
            });
            while let Some(batch) = q.recv_batch(3, due) {
                assert!(!batch.is_empty() && batch.len() <= 3);
                collected.extend(batch.into_iter().map(|(_, v)| v));
            }
        });
        assert_eq!(collected, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn a_batch_frees_room_for_every_blocked_sender() {
        let q: Queue<u32> = Queue::bounded(2);
        std::thread::scope(|s| {
            for v in 0..4 {
                let q = &q;
                s.spawn(move || q.send(v).unwrap());
            }
            let mut got = Vec::new();
            while got.len() < 4 {
                got.extend(q.recv_batch(2, never).unwrap());
            }
            got.sort_unstable();
            assert_eq!(got, [0, 1, 2, 3]);
        });
    }
}
