//! Helpers shared by the integration tests of this crate. Each test
//! binary uses the ones it needs.
#![allow(dead_code)]

use spot_proto::transport::TcpTransport;
use std::net::TcpListener;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

/// A connected `(client, server)` pair of framed TCP endpoints on
/// loopback.
pub fn tcp_pair() -> (TcpTransport, TcpTransport) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let accept = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        TcpTransport::from_stream(stream).expect("server transport")
    });
    let client_t = TcpTransport::connect(addr.to_string()).expect("connect loopback");
    (client_t, accept.join().expect("accept thread"))
}

/// A misbehaving peer must end in a typed error and a deadlock must
/// fail the suite, never hang it: kills the test binary if `scenario`
/// is still running at the deadline.
pub fn within_deadline<T>(what: &str, scenario: impl FnOnce() -> T) -> T {
    const DEADLINE: Duration = Duration::from_secs(120);
    let (done, watch) = mpsc::channel::<()>();
    let what = what.to_string();
    let watchdog = std::thread::spawn(move || {
        if watch.recv_timeout(DEADLINE) == Err(RecvTimeoutError::Timeout) {
            eprintln!("{what}: still running after {DEADLINE:?}");
            std::process::abort();
        }
    });
    let out = scenario();
    drop(done);
    watchdog.join().expect("watchdog");
    out
}
