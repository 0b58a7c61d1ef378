//! The two-process demo end to end: the built `spot-server` serves
//! `spot-client` processes over TCP loopback, each client checks its
//! output against the plaintext pass and an in-process reference run,
//! and the server's exit report sums every connection — sixteen
//! concurrent clients, a batched one, and a peer that sends a malformed
//! frame.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::process::{Child, ChildStdout, Command, Output, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const SERVER: &str = env!("CARGO_BIN_EXE_spot-server");
const CLIENT: &str = env!("CARGO_BIN_EXE_spot-client");
const CHECK: &str = env!("CARGO_BIN_EXE_bench_check");

/// Kills the server if the test fails before it exits on its own.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// A running `spot-server`: its stdout after the listening line, its
/// stderr (the log) drained on a thread so the server never blocks on a
/// full pipe, and the address it listens on.
struct Running {
    server: Server,
    stdout: BufReader<ChildStdout>,
    log: JoinHandle<String>,
    addr: String,
}

impl Running {
    fn start(flags: &[&str]) -> Self {
        let mut server = Server(
            Command::new(SERVER)
                .args(["--listen", "127.0.0.1:0"])
                .args(flags)
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("start spot-server"),
        );
        let mut stderr = server.0.stderr.take().expect("piped stderr");
        let log = std::thread::spawn(move || {
            let mut log = String::new();
            stderr
                .read_to_string(&mut log)
                .expect("read the server log");
            log
        });
        let mut stdout = BufReader::new(server.0.stdout.take().expect("piped stdout"));
        let mut first = String::new();
        stdout
            .read_line(&mut first)
            .expect("read the listening line");
        let addr = first
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or_else(|| panic!("no listening address in {first:?}"))
            .to_string();
        Self {
            server,
            stdout,
            log,
            addr,
        }
    }

    /// Waits for the server to exit on its own and returns its exit
    /// report (stdout) and its log (stderr).
    fn finish(mut self) -> (String, String) {
        let mut report = String::new();
        self.stdout
            .read_to_string(&mut report)
            .expect("read the exit report");
        let status = self.server.0.wait().expect("wait for spot-server");
        let log = self.log.join().expect("log reader");
        assert!(
            status.success(),
            "spot-server exited {status}:\n{report}\n{log}"
        );
        (report, log)
    }
}

fn client_command(addr: &str, extra: &[&str]) -> Command {
    let mut command = Command::new(CLIENT);
    command
        .args(["--connect", addr])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    command
}

fn client_output(extra: &[&str], Output { status, stdout, .. }: Output) -> String {
    let stdout = String::from_utf8(stdout).expect("utf-8 client output");
    assert!(status.success(), "spot-client {extra:?} failed:\n{stdout}");
    stdout
}

fn client(addr: &str, extra: &[&str]) -> String {
    let output = client_command(addr, extra)
        .output()
        .expect("run spot-client");
    client_output(extra, output)
}

fn assert_lines(log: &str, lines: &[String]) {
    for line in lines {
        assert!(log.contains(line.as_str()), "missing {line:?} in:\n{log}");
    }
}

/// Holds the server log to one line per session event: exactly one
/// line names each of `sessions`, and `failed` of them say so.
fn assert_one_line_per_session(log: &str, sessions: usize, failed: usize) {
    for id in 0..sessions {
        let naming = log
            .lines()
            .filter(|l| l.contains(&format!("session {id} ")));
        assert_eq!(naming.count(), 1, "session {id} in:\n{log}");
    }
    let failures = log.lines().filter(|l| l.contains("failed"));
    assert_eq!(failures.count(), failed, "failed lines in:\n{log}");
}

/// The (bytes, frames) of the `client -> server` and `server -> client`
/// rows of the transfer table titled `title` in `log`.
fn traffic(log: &str, title: &str) -> [(u64, u64); 2] {
    let table = log
        .split("== ")
        .find(|table| table.starts_with(title))
        .unwrap_or_else(|| panic!("no table {title:?} in:\n{log}"));
    ["client -> server", "server -> client"].map(|direction| {
        let row = table
            .lines()
            .find_map(|line| line.strip_prefix(direction))
            .unwrap_or_else(|| panic!("no {direction:?} row in:\n{table}"));
        let mut cells = row.split_whitespace().map(|cell| cell.parse().expect(cell));
        (cells.next().expect("bytes"), cells.next().expect("frames"))
    })
}

const SERVER_TRAFFIC: &str = "Server-side wire traffic, every session";
const CLIENT_TRAFFIC: &str = "Client-side wire traffic, TCP";

/// The value after ` {field} ` on a log line.
fn field(line: &str, field: &str) -> f64 {
    let value = line
        .split(&format!(" {field} "))
        .nth(1)
        .and_then(|rest| rest.split([',', ' ']).next())
        .unwrap_or_else(|| panic!("no {field} in {line:?}"));
    value
        .parse()
        .unwrap_or_else(|_| panic!("{field} in {line:?}"))
}

#[test]
fn one_server_serves_a_plain_and_a_batched_client_and_sums_them() {
    let server = Running::start(&["--serve", "2"]);
    let plain = client(&server.addr, &[]);
    assert_lines(
        &plain,
        &["output vs plain: MATCH", "output vs reference: MATCH"].map(String::from),
    );
    let batched = client(&server.addr, &["--batch", "2"]);
    let images = (0..2)
        .flat_map(|i| ["plain", "reference"].map(|of| format!("image {i}: output vs {of}: MATCH")));
    assert_lines(&batched, &images.collect::<Vec<_>>());
    for log in [&plain, &batched] {
        assert_lines(log, &["traffic vs reference: MATCH".into()]);
    }

    let (report, log) = server.finish();
    assert_one_line_per_session(&log, 2, 0);
    let want = [
        "served 2 sessions (0 failed, 0 rejected)",
        "2 batched images — amortized",
        "Measured stall accounting (every session, both conv layers)",
        SERVER_TRAFFIC,
    ];
    assert_lines(&report, &want.map(String::from));
}

/// Sixteen client processes at once, each with its own key and seed,
/// against a server admitting sixteen sessions: every client matches,
/// none is refused, every session logs its stall, and the server's
/// traffic totals are the clients' own, byte for byte.
#[test]
fn sixteen_concurrent_clients_match_and_the_server_sums_their_traffic() {
    const CLIENTS: usize = 16;
    let server = Running::start(&["--max-sessions", "16", "--serve", "16"]);
    let seeds: Vec<String> = (0..CLIENTS).map(|i| i.to_string()).collect();
    let running: Vec<Child> = seeds
        .iter()
        .map(|seed| {
            client_command(&server.addr, &["--seed", seed])
                .spawn()
                .expect("start spot-client")
        })
        .collect();
    let clients: Vec<String> = running
        .into_iter()
        .zip(&seeds)
        .map(|(child, seed)| {
            let output = child.wait_with_output().expect("wait for spot-client");
            client_output(&["--seed", seed], output)
        })
        .collect();
    let (report, log) = server.finish();

    let mut summed = [(0, 0); 2];
    for out in &clients {
        let want = [
            "output vs plain",
            "output vs reference",
            "traffic vs reference",
        ];
        assert_lines(out, &want.map(|check| format!("{check}: MATCH")));
        for (sum, (bytes, frames)) in summed.iter_mut().zip(traffic(out, CLIENT_TRAFFIC)) {
            *sum = (sum.0 + bytes, sum.1 + frames);
        }
    }
    assert_lines(
        &report,
        &["served 16 sessions (0 failed, 0 rejected)".into()],
    );
    assert_eq!(traffic(&report, SERVER_TRAFFIC), summed);

    // Each session's `done` line carries its own stall.
    let done: Vec<&str> = log.lines().filter(|l| l.contains(") done — ")).collect();
    assert_eq!(done.len(), CLIENTS, "{log}");
    for line in done {
        let share = field(line, "server_busy_share");
        let (idle, keys) = (field(line, "server_idle_s"), field(line, "key_wait_s"));
        assert!((0.0..=1.0).contains(&share), "{line}");
        assert!((0.0..=idle).contains(&keys), "{line}");
    }
}

/// A peer that sends one malformed frame fails its session, and what
/// the server sent it — the typed error frame — is in the exit report's
/// traffic: a failed session moved bytes too.
#[test]
fn a_failed_session_is_counted_in_the_server_traffic() {
    let server = Running::start(&["--serve", "1"]);
    let mut raw = TcpStream::connect(&server.addr).expect("connect");
    // A frame header of a wire version no build speaks, no payload.
    raw.write_all(&[0xFF, 0, 0, 0, 0, 0])
        .expect("write the frame");
    raw.shutdown(Shutdown::Write).expect("half-close");
    let mut answer = Vec::new();
    raw.read_to_end(&mut answer).expect("read to EOF");
    assert!(!answer.is_empty(), "the server sent no error frame");

    let (report, log) = server.finish();
    assert_one_line_per_session(&log, 1, 1);
    assert_lines(
        &report,
        &["served 0 sessions (1 failed, 0 rejected)".into()],
    );
    let [_, (sent, frames)] = traffic(&report, SERVER_TRAFFIC);
    assert_eq!((sent, frames), (answer.len() as u64, 1), "{report}");
}

#[test]
fn retired_and_unknown_flags_exit_2_with_the_usage_line() {
    let refused = [
        (SERVER, &["--listen", "127.0.0.1:0", "--once"][..]),
        (
            SERVER,
            &["--listen", "127.0.0.1:0", "--backend", "streaming"],
        ),
        (
            SERVER,
            &["--listen", "127.0.0.1:0", "--serve", "1", "--thread", "4"],
        ),
        (
            SERVER,
            &["--listen", "127.0.0.1:0", "--admin", "127.0.0.1:0"],
        ),
        (SERVER, &["--listen", "127.0.0.1:0", "--linger-ms", "100"]),
        (CHECK, &["--baseline", "x.json", "--scrape", "127.0.0.1:9"]),
    ];
    for (bin, flags) in refused {
        // A server that takes the flags would wait for a client: give
        // it a free port and a deadline instead of hanging the test.
        let mut child = Server(
            Command::new(bin)
                .args(flags)
                .stdout(Stdio::null())
                .stderr(Stdio::piped())
                .spawn()
                .expect("start the binary"),
        );
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = loop {
            match child.0.try_wait().expect("poll the binary") {
                Some(status) => break status,
                None if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
                None => panic!("{bin} {flags:?} is still running"),
            }
        };
        let mut stderr = String::new();
        let mut pipe = child.0.stderr.take().expect("piped stderr");
        pipe.read_to_string(&mut stderr).expect("read stderr");
        assert_eq!(status.code(), Some(2), "{flags:?}: {stderr}");
        let name = if bin == CHECK {
            "bench_check"
        } else {
            "spot-server"
        };
        assert!(
            stderr.contains(&format!("usage: {name}")),
            "{flags:?}: {stderr}"
        );
    }
}
