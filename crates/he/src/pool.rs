//! Thread-local residue-buffer pool for the HE hot path.
//!
//! Every [`Poly`](crate::poly::Poly) owns a `moduli_count * degree`
//! `Vec<u64>` — ~100 KB at `N = 4096` and ~1 MB at `N = 16384`. The
//! steady-state encrypt → convolve → decrypt loop used to allocate and
//! free several of these per HE operation (ciphertext clones, rotation
//! outputs, key-switch scratch, sampled randomness). The pool keeps
//! retired buffers on a per-thread free list keyed by length, so a
//! thread's working set of polynomials is allocated once and then
//! recycled: [`Poly`](crate::poly::Poly) returns its buffer here on
//! drop, and every `Poly` construction site takes from here first.
//!
//! The hot path is strictly thread-local (no locks, no cross-thread
//! traffic); a buffer filled on one thread and dropped on another
//! simply migrates to the second thread's pool. The one shared piece is
//! the reserve: a thread that exits leaves its free lists there, and a
//! later thread's misses are served from it before the allocator. The
//! server's conv driver runs each round's workers on fresh threads, so
//! without the reserve every round would allocate its working set anew
//! and free it at thread exit — at ~100 KB a buffer, megabytes of
//! allocator trimming and page faults per layer.
//!
//! Capacity is bounded: at most [`capacity`] buffers are retained per
//! distinct length (excess buffers are freed normally); a thread may
//! change its own bound with [`set_capacity`]. The reserve keeps at
//! most the default bound per length.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;

struct Pool {
    free: HashMap<usize, Vec<Vec<u64>>>,
    cap_per_len: usize,
}

impl Pool {
    const DEFAULT_CAP: usize = 64;

    fn new() -> Self {
        Self {
            free: HashMap::new(),
            cap_per_len: Self::DEFAULT_CAP,
        }
    }
}

thread_local! {
    static POOL: RefCell<Pool> = RefCell::new(Pool::new());
}

/// Free lists of threads that have exited, by buffer length.
static RESERVE: Mutex<BTreeMap<usize, Vec<Vec<u64>>>> = Mutex::new(BTreeMap::new());

impl Drop for Pool {
    /// Thread exit: the free lists move to the reserve, up to its bound.
    fn drop(&mut self) {
        // Poisoned means a panic is already propagating: just free.
        let Ok(mut reserve) = RESERVE.lock() else {
            return;
        };
        for (len, list) in self.free.drain() {
            let kept = reserve.entry(len).or_default();
            let room = Self::DEFAULT_CAP.saturating_sub(kept.len());
            kept.extend(list.into_iter().take(room));
        }
    }
}

/// Takes a buffer of exactly `len` elements with **unspecified
/// contents** — the caller must overwrite every element (or use
/// [`take_zeroed`]).
pub fn take(len: usize) -> Vec<u64> {
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        match p.free.get_mut(&len).and_then(Vec::pop) {
            Some(buf) => {
                spot_trace::count(spot_trace::Counter::PoolHit, 1);
                buf
            }
            None => {
                spot_trace::count(spot_trace::Counter::PoolMiss, 1);
                let inherited = RESERVE.lock().ok().and_then(|mut r| r.get_mut(&len)?.pop());
                inherited.unwrap_or_else(|| vec![0u64; len])
            }
        }
    })
}

/// Takes a buffer of `len` zeros.
pub fn take_zeroed(len: usize) -> Vec<u64> {
    let mut buf = take(len);
    buf.fill(0);
    buf
}

/// Returns a buffer to the current thread's free list (dropped if the
/// list already holds [`capacity`] buffers of this length, or if the
/// thread is shutting down).
pub fn recycle(buf: Vec<u64>) {
    if buf.is_empty() {
        return;
    }
    // `try_with`: a Poly dropped during thread-local teardown must not
    // panic; its buffer just frees normally.
    let _ = POOL.try_with(|p| {
        let mut p = p.borrow_mut();
        let cap = p.cap_per_len;
        let list = p.free.entry(buf.len()).or_default();
        if list.len() < cap {
            list.push(buf);
            spot_trace::count(spot_trace::Counter::PoolRecycled, 1);
        } else {
            spot_trace::count(spot_trace::Counter::PoolDropped, 1);
        }
    });
}

/// Sets the maximum number of buffers retained per distinct length on
/// the current thread, freeing any excess immediately.
pub fn set_capacity(buffers_per_len: usize) {
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        p.cap_per_len = buffers_per_len;
        for list in p.free.values_mut() {
            list.truncate(buffers_per_len);
        }
    });
}

/// The current thread's retention bound (buffers per distinct length).
pub fn capacity() -> usize {
    POOL.with(|p| p.borrow().cap_per_len)
}

/// Number of buffers currently held on the current thread's free lists.
pub fn held() -> usize {
    POOL.with(|p| p.borrow().free.values().map(Vec::len).sum())
}

/// Frees every retained buffer on the current thread.
pub fn clear() {
    POOL.with(|p| p.borrow_mut().free.clear());
}

#[cfg(test)]
mod tests {
    use super::*;
    use spot_trace::{Counter, SessionCounters};

    /// Runs `f` on this thread under a fresh session counter sink;
    /// returns its value and the pool's hits, misses, recycled and
    /// dropped buffers.
    fn pool_counts<T>(f: impl FnOnce() -> T) -> (T, [u64; 4]) {
        let sink = SessionCounters::new(0);
        let prev = spot_trace::set_session_counters(Some(sink.clone()));
        let value = f();
        spot_trace::set_session_counters(prev);
        let snap = sink.snapshot();
        let pool = [
            Counter::PoolHit,
            Counter::PoolMiss,
            Counter::PoolRecycled,
            Counter::PoolDropped,
        ];
        (value, pool.map(|c| snap.get(c)))
    }

    #[test]
    fn take_recycle_reuses() {
        clear();
        let (b, counts) = pool_counts(|| {
            let a = take(1024);
            let ptr = a.as_ptr();
            recycle(a);
            let b = take(1024);
            assert_eq!(b.as_ptr(), ptr, "recycled buffer must be reused");
            b
        });
        assert_eq!(counts, [1, 1, 1, 0]);
        recycle(b);
    }

    #[test]
    fn lengths_are_segregated() {
        clear();
        recycle(take(64));
        let b = take(128);
        assert_eq!(b.len(), 128);
        recycle(b);
        assert_eq!(take(64).len(), 64);
    }

    #[test]
    fn capacity_bounds_retention() {
        clear();
        set_capacity(2);
        let ((), counts) = pool_counts(|| {
            for _ in 0..4 {
                recycle(vec![0u64; 256]);
            }
        });
        assert_eq!(held(), 2);
        assert_eq!(counts, [0, 0, 2, 2]);
        set_capacity(Pool::DEFAULT_CAP);
        clear();
    }

    #[test]
    fn an_exited_thread_leaves_its_buffers_to_later_threads() {
        // A length no other test uses, so the reserve entry is ours.
        let len = 4099;
        let left = std::thread::spawn(move || {
            let buf = vec![7u64; len];
            let ptr = buf.as_ptr() as usize;
            recycle(buf);
            ptr
        })
        .join()
        .unwrap();
        let inherited = std::thread::spawn(move || {
            let (buf, counts) = pool_counts(|| take(len));
            assert_eq!(counts[1], 1, "not from this thread's own list");
            (buf.as_ptr() as usize, buf.len())
        })
        .join()
        .unwrap();
        assert_eq!(inherited, (left, len));
    }

    #[test]
    fn take_zeroed_clears_dirty_buffers() {
        clear();
        recycle(vec![7u64; 32]);
        assert!(take_zeroed(32).iter().all(|&v| v == 0));
    }
}
