//! The two-process demo end to end: the built `spot-server` serves a
//! plain and a `--batch 2` `spot-client` over TCP loopback, each client
//! checks its output against the plaintext pass and an in-process
//! reference run, and the server's exit report sums both sessions.

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

const SERVER: &str = env!("CARGO_BIN_EXE_spot-server");
const CLIENT: &str = env!("CARGO_BIN_EXE_spot-client");

/// Kills the server if the test fails before it exits on its own.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn client(addr: &str, extra: &[&str]) -> String {
    let Output { status, stdout, .. } = Command::new(CLIENT)
        .args(["--connect", addr])
        .args(extra)
        .stderr(Stdio::inherit())
        .output()
        .expect("run spot-client");
    let stdout = String::from_utf8(stdout).expect("utf-8 client output");
    assert!(status.success(), "spot-client {extra:?} failed:\n{stdout}");
    stdout
}

fn assert_lines(log: &str, lines: &[String]) {
    for line in lines {
        assert!(log.contains(line.as_str()), "missing {line:?} in:\n{log}");
    }
}

#[test]
fn one_server_serves_a_plain_and_a_batched_client_and_sums_them() {
    let mut server = Server(
        Command::new(SERVER)
            .args(["--listen", "127.0.0.1:0", "--serve", "2"])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("start spot-server"),
    );
    let mut out = BufReader::new(server.0.stdout.take().expect("piped stdout"));
    let mut first = String::new();
    out.read_line(&mut first).expect("read the listening line");
    let addr = first
        .split("listening on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no listening address in {first:?}"))
        .to_string();

    let plain = client(&addr, &[]);
    assert_lines(
        &plain,
        &["output vs plain: MATCH", "output vs reference: MATCH"].map(String::from),
    );
    let batched = client(&addr, &["--batch", "2"]);
    let images = (0..2)
        .flat_map(|i| ["plain", "reference"].map(|of| format!("image {i}: output vs {of}: MATCH")));
    assert_lines(&batched, &images.collect::<Vec<_>>());
    for log in [&plain, &batched] {
        assert_lines(log, &["traffic vs reference: MATCH".into()]);
    }

    let mut report = String::new();
    out.read_to_string(&mut report)
        .expect("read the exit report");
    let status = server.0.wait().expect("wait for spot-server");
    assert!(status.success(), "spot-server exited {status}:\n{report}");
    let want = [
        "served 2 sessions (0 failed, 0 rejected)",
        "2 batched images — amortized",
        "Measured stall accounting (every session, both conv layers)",
        "Server-side wire traffic, every session",
    ];
    assert_lines(&report, &want.map(String::from));
}

#[test]
fn the_retired_server_flags_exit_2_with_the_usage_line() {
    let refused = [
        &["--once"][..],
        &["--backend", "streaming"],
        &["--serve", "1", "--thread", "4"],
    ];
    for flags in refused {
        // A server that takes the flags would wait for a client: give
        // it a free port and a deadline instead of hanging the test.
        let mut server = Server(
            Command::new(SERVER)
                .args(["--listen", "127.0.0.1:0"])
                .args(flags)
                .stdout(Stdio::null())
                .stderr(Stdio::piped())
                .spawn()
                .expect("start spot-server"),
        );
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = loop {
            match server.0.try_wait().expect("poll spot-server") {
                Some(status) => break status,
                None if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
                None => panic!("spot-server {flags:?} is still running"),
            }
        };
        let mut stderr = String::new();
        let mut pipe = server.0.stderr.take().expect("piped stderr");
        pipe.read_to_string(&mut stderr).expect("read stderr");
        assert_eq!(status.code(), Some(2), "{flags:?}: {stderr}");
        assert!(stderr.contains("usage: spot-server"), "{flags:?}: {stderr}");
    }
}
