//! Wall and CPU clocks.
//!
//! The two `*_busy_*` metrics are on-CPU time, not wall time: both
//! parties fan out onto threads the library spawns (client uploader;
//! server ingest and convolution workers), so "wall minus time blocked
//! in the transport" of any single thread would count a thread that is
//! merely waiting on a sibling as busy. CPU time needs no knowledge of
//! which thread waits on which, and on a shared 2-core box it does not
//! grow when a neighbour pre-empts us.

use std::sync::OnceLock;
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads CPU time through 64-bit Linux clock_gettime");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_ns(clock_id: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two C longs
    // on 64-bit Linux, asserted by the cfg gate above) and both clock
    // ids are valid on Linux, so the call only writes `ts`.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time consumed so far by the calling thread.
pub fn thread_cpu_ns() -> u64 {
    cpu_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time consumed so far by every thread of this process, exited
/// ones included.
pub fn process_cpu_ns() -> u64 {
    cpu_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// Nanoseconds since the first call in this process: the one time axis
/// every span and transport call is stamped on.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}
