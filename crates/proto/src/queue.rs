//! The one blocking FIFO every in-process hand-off runs on.
//!
//! The tiny client's memory bound (§III: the client blocks once `k`
//! ciphertexts are in flight) and the server's read-ahead are the same
//! mechanism, so they are one type: [`Queue`] carries both directions
//! of [`crate::MemTransport`] and `spot-core`'s conv driver's ingest
//! and result queues. Its rules are written once:
//!
//! * [`Queue::send`] blocks while `capacity` items are queued and
//!   returns the time it blocked; after [`Queue::close`] it fails with
//!   [`ProtoError::Disconnected`].
//! * [`Queue::recv`] blocks while the queue is empty and open, returns
//!   `None` once it is closed and drained, and reports the time it
//!   blocked.
//! * [`Queue::close`] is the one call that wakes every waiter: blocked
//!   senders fail and blocked receivers drain, then get `None`. The
//!   conv driver's hang-up path rests on it.
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
        assert_eq!(q.recv().0, None);
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
    fn close_releases_every_blocked_waiter() {
        use std::sync::{mpsc, Arc};
        let full: Arc<Queue<u32>> = Arc::new(Queue::bounded(1));
        full.send(0).unwrap();
        let empty: Arc<Queue<u32>> = Arc::new(Queue::bounded(1));
        let (sent, sends) = mpsc::channel();
        let (received, receives) = mpsc::channel();
        let sender = Arc::clone(&full);
        std::thread::spawn(move || sent.send(sender.send(1)));
        for _ in 0..2 {
            let (receiver, received) = (Arc::clone(&empty), received.clone());
            std::thread::spawn(move || received.send(receiver.recv().0));
        }
        // Let all three reach their wait before the closes.
        std::thread::sleep(Duration::from_millis(50));
        full.close();
        empty.close();
        // A waiter that close does not wake stays blocked: fail, not hang.
        let deadline = Duration::from_secs(10);
        let send = sends
            .recv_timeout(deadline)
            .expect("close wakes the sender");
        assert_eq!(send, Err(ProtoError::Disconnected));
        for _ in 0..2 {
            let got = receives
                .recv_timeout(deadline)
                .expect("close wakes every receiver");
            assert_eq!(got, None);
        }
        // The item queued before the close still drains.
        assert_eq!(full.recv().0, Some(0));
        assert_eq!(full.recv().0, None);
    }
}
