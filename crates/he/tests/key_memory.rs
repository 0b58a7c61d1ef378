//! What a tiny client holds while it writes one rotation key. The
//! key's blob is written one prime row at a time, so at N4096 the
//! writer must peak at most 192 KiB above what it was called with, not
//! counting the blob it returns — where a key made whole (`k` uniform
//! and `k` key polynomials, `s(X^g)`, an error polynomial) is most of a
//! megabyte.
//!
//! A counting global allocator measures the heap; the thread's buffer
//! pool is switched off, so pooled buffers are allocations too. One
//! test in this binary, so no other test's allocations are counted.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spot_he::prelude::*;
use spot_he::serial::galois_keys_to_bytes;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded to the system allocator unchanged;
// the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded as is.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::SeqCst) + layout.size();
            PEAK.fetch_max(live, Ordering::SeqCst);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded as is.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The most the heap held above its level at the call, while `f` ran,
/// less the bytes of what `f` returns (`kept`).
fn peak_above<T>(f: impl FnOnce() -> T, kept: impl Fn(&T) -> usize) -> (usize, T) {
    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let out = f();
    let peak = PEAK.load(Ordering::SeqCst);
    (peak - before - kept(&out), out)
}

#[test]
fn writing_one_n4096_key_holds_a_few_rows_not_a_key() {
    spot_he::pool::set_capacity(0);
    let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
    let mut rng = StdRng::seed_from_u64(47);
    let keygen = KeyGenerator::new(&ctx, &mut rng);
    let g = 2 * ctx.degree() - 1;
    // The first key builds what every later one shares: the dispatch
    // decision and the degree's lane jump.
    drop(keygen.galois_key_blob(g, &mut rng));

    let (written, blob) = peak_above(
        || keygen.galois_key_blob(g, &mut rng),
        |blob| blob.capacity(),
    );
    assert_eq!(blob.len(), 4 + ctx.params().galois_key_bytes());
    let (whole, keys) = peak_above(|| keygen.galois_keys(&[g], &mut rng), |_| 0);
    let serialized = galois_keys_to_bytes(&keys);
    assert_eq!(serialized.len(), blob.len());
    println!(
        "one N4096 key: {} KiB above the call to write its {} KiB blob; \
         {} KiB to make it whole",
        written / 1024,
        blob.len() / 1024,
        whole / 1024,
    );
    assert!(written <= 192 * 1024, "{written} B held writing one key");
    // The whole key and its read-back hold every polynomial of it.
    assert!(whole > 4 * written, "{whole} B for the whole key");
}
